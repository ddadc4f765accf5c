// P4/P6/P7 (perf) — schedule-space explorer scaling: DFS throughput
// (states/sec, min-of-N wall time) with the restore-cost counters
// (restores, mark re-feeds per node, restore_marks, visited-cache
// reserved/live bytes), visited-state pruning, the
// source-dpor reduction rows (with a stateful-vs-baseline state ceiling),
// stateful vs stateless source-dpor on the re-convergent peterson-tree
// cell (the >= 10x sleep_blocked gate), Sim-level restore mechanics
// (rewind vs from-scratch), thread scaling of the parallel
// source-DPOR path, and thread-count invariance checked
// byte-for-byte on the canonical study JSON (also written to --study-out
// for CI's cross-thread-count cmp gate). Writes BENCH_explorer_scaling.json
// (schema cfc.bench.v1, git sha in the context); CI runs this in Release as
// the perf smoke.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/study.h"
#include "analysis/table.h"
#include "bench_util.h"
#include "core/algorithm_registry.h"
#include "core/streaming_measures.h"
#include "obs/trace.h"
#include "sched/sched.h"

namespace {

using namespace cfc;

StudySpec peterson_exhaustive(int depth) {
  return StudySpec::of("peterson-2p")
      .n(2)
      .worst_case(SearchStrategy::Exhaustive)
      .depth(depth);
}

/// The mutex worst-case study objective (clean-entry + exit window
/// maxima), stated directly so this bench can drive the Explorer itself
/// and read the restore-cost counters that StudyResult does not carry.
Explorer::Config peterson_config(
    int depth, ReductionPolicy reduction = ReductionPolicy::Off) {
  const MutexFactory make =
      AlgorithmRegistry::instance().mutex("peterson-2p").factory;
  Explorer::Config cfg;
  cfg.nprocs = 2;
  cfg.strategy = SearchStrategy::Exhaustive;
  cfg.limits.max_depth = depth;
  cfg.limits.reduction = reduction;
  cfg.setup = [make](Sim& sim) -> std::shared_ptr<void> {
    return setup_mutex(sim, make, 2, 1);
  };
  cfg.objective.fields = {MeasureField::CleanEntry, MeasureField::Exit};
  return cfg;
}

/// A four-process tree-mutex search under source-dpor: the planner fans a
/// wide frontier of long work items — the shape the thread scaling
/// section measures.
Explorer::Config tree_dpor_config(int depth) {
  const MutexFactory make =
      AlgorithmRegistry::instance().mutex("peterson-tree").factory;
  Explorer::Config cfg;
  cfg.nprocs = 4;
  cfg.strategy = SearchStrategy::Exhaustive;
  cfg.limits.max_depth = depth;
  cfg.limits.reduction = ReductionPolicy::SourceDpor;
  cfg.setup = [make](Sim& sim) -> std::shared_ptr<void> {
    return setup_mutex(sim, make, 4, 1);
  };
  cfg.objective.fields = {MeasureField::CleanEntry, MeasureField::Exit};
  return cfg;
}

/// Locates a field of the committed baseline's row at a depth in a given
/// section (the `{"section": S, "depth": D, ...}` rows of a
/// BENCH_explorer_scaling.json this bench itself wrote): a pointer to the
/// field's value text, or nullptr when the baseline predates the field or
/// section. A targeted text scan, not a JSON parser: the row shape is owned
/// by this file.
const char* baseline_row_value(const std::string& json, const char* section,
                               int depth, const char* field) {
  const std::string sect =
      "\"section\": \"" + std::string(section) + "\"";
  const std::string want_depth = "\"depth\": " + std::to_string(depth);
  for (std::size_t at = json.find(sect); at != std::string::npos;
       at = json.find(sect, at + 1)) {
    const std::size_t row_end = json.find('}', at);
    const std::size_t d = json.find(want_depth, at);
    if (d == std::string::npos || d > row_end) {
      continue;
    }
    const std::string key = "\"" + std::string(field) + "\": ";
    const std::size_t s = json.find(key, at);
    if (s == std::string::npos || s > row_end) {
      continue;
    }
    return json.c_str() + s + key.size();
  }
  return nullptr;
}

/// A numeric field of the baseline's top-level context (the first
/// "context" object, which JsonReport writes before any study); negative
/// when absent.
double baseline_context_double(const std::string& json, const char* field) {
  const std::size_t at = json.find("\"context\": {");
  if (at == std::string::npos) {
    return -1.0;
  }
  const std::size_t end = json.find('}', at);
  const std::string key = "\"" + std::string(field) + "\": ";
  const std::size_t s = json.find(key, at);
  if (s == std::string::npos || s > end) {
    return -1.0;
  }
  return std::strtod(json.c_str() + s + key.size(), nullptr);
}

/// A numeric baseline field; negative when absent.
double baseline_row_double(const std::string& json, const char* section,
                           int depth, const char* field) {
  const char* v = baseline_row_value(json, section, depth, field);
  return v != nullptr ? std::strtod(v, nullptr) : -1.0;
}

/// A string baseline field (its quotes stripped); empty when absent.
std::string baseline_row_string(const std::string& json, const char* section,
                                int depth, const char* field) {
  const char* v = baseline_row_value(json, section, depth, field);
  if (v == nullptr || *v != '"') {
    return {};
  }
  const char* end = std::strchr(v + 1, '"');
  return end != nullptr ? std::string(v + 1, end) : std::string();
}

std::string read_file(const std::string& path) {
  std::string out;
  if (std::FILE* fp = std::fopen(path.c_str(), "rb")) {
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), fp)) > 0) {
      out.append(buf, got);
    }
    std::fclose(fp);
  }
  return out;
}

bool same_best(const std::vector<ComplexityReport>& a,
               const std::vector<ComplexityReport>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].steps != b[i].steps || a[i].registers != b[i].registers ||
        a[i].read_steps != b[i].read_steps ||
        a[i].write_steps != b[i].write_steps ||
        a[i].read_registers != b[i].read_registers ||
        a[i].write_registers != b[i].write_registers ||
        a[i].atomicity != b[i].atomicity ||
        a[i].truncated != b[i].truncated) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const cfc::bench::BenchOptions opts =
      cfc::bench::BenchOptions::parse(argc, argv);
  if (cfc::bench::handle_list(opts, {cfc::StudyKind::Mutex})) {
    return 0;
  }
  if (!opts.trace_out.empty()) {
    cfc::obs::Tracer::start(opts.trace_out);
  }
  const auto runner = opts.make_runner();
  // Wall-clock gates (states/sec band, rewind-vs-scratch) assume the pool
  // fits the host. When --threads asks for more workers than cores —
  // the CI determinism sweep runs --threads 4 on small runners — timing
  // comparisons measure scheduler thrash, not the code, so those gates
  // turn advisory. Every counter and bit-identity gate stays hard.
  const unsigned hw_threads =
      std::max(1u, std::thread::hardware_concurrency());
  const bool oversubscribed =
      opts.threads > 0 && static_cast<unsigned>(opts.threads) > hw_threads;
  cfc::bench::Verifier verify;
  cfc::bench::JsonReport json("explorer_scaling", opts.out);
  json.context("repeat", cfc::bench::jv(opts.repeat));
  json.context("threads", cfc::bench::jv(opts.threads));
  const std::string baseline_json =
      opts.baseline.empty() ? std::string() : read_file(opts.baseline);
  if (!opts.baseline.empty() && baseline_json.empty()) {
    std::printf("  [warn] --baseline %s not readable; baseline comparisons "
                "omitted\n",
                opts.baseline.c_str());
  }
  // A states/sec figure depends on the pool size and on the min-of-N
  // estimator, so the baseline's rates bind only a run recorded at the
  // same --threads and --repeat. Otherwise the rate gate is refused, with
  // the mismatch named; the state-count gates are thread-invariant and
  // always bind.
  std::string rate_context_mismatch;
  const auto compare_context = [&](const char* field, int mine) {
    const double theirs = baseline_context_double(baseline_json, field);
    if (theirs == static_cast<double>(mine)) {
      return;
    }
    if (!rate_context_mismatch.empty()) {
      rate_context_mismatch += ", ";
    }
    rate_context_mismatch +=
        std::string(field) + " " +
        (theirs < 0.0 ? std::string("?")
                      : std::to_string(static_cast<long long>(theirs))) +
        " vs " + std::to_string(mine);
  };
  if (!baseline_json.empty()) {
    compare_context("threads", opts.threads);
    compare_context("repeat", opts.repeat);
    if (!rate_context_mismatch.empty()) {
      std::printf("  [note] baseline context differs (baseline vs this run: "
                  "%s): states/sec gate refused\n\n",
                  rate_context_mismatch.c_str());
    }
  }

  // --- 1. Exhaustive DFS throughput over depth, with the restore cost
  // model's counters: every DFS node with k > 1 branches pays k-1
  // restores, each rewinding the live Sim to the node's mark; only the
  // processes that acted below it are value-replayed, each at its next
  // step — re-feeds per node is the knob that perf work on the restore
  // path moves.
  std::printf(
      "Exhaustive exploration throughput (Peterson, n=2, reduction=%s, "
      "min of %d):\n\n",
      name(opts.reduction), opts.repeat);
  json.context("reduction", std::string(name(opts.reduction)));
  TextTable thr({"depth", "states", "leaves", "ms", "states/sec",
                 "restores", "value/node", "marks",
                 "visited KiB (live)", "entry steps"});
  // Section 3b reuses these as its "unreduced" side when the throughput
  // section already ran unreduced (the default --reduction=off), so the
  // heaviest searches are not repeated per invocation.
  std::vector<std::pair<Explorer::Result, double>> throughput_runs;
  for (const int depth : {12, 16, 20}) {
    Explorer::Result res;
    const double ms = cfc::bench::min_ms_of(opts.repeat, [&] {
      const Explorer explorer(peterson_config(depth, opts.reduction));
      res = explorer.run(runner.get());
    });
    throughput_runs.emplace_back(res, ms);
    const double rate =
        ms > 0 ? 1000.0 * static_cast<double>(res.stats.states_visited) / ms
               : 0.0;
    const double value_replayed_per_node =
        res.stats.states_visited
            ? static_cast<double>(res.stats.value_replayed_steps) /
                  static_cast<double>(res.stats.states_visited)
            : 0.0;
    const std::uint64_t leaves =
        res.stats.runs_completed + res.stats.runs_truncated;
    thr.add_row(
        {std::to_string(depth), std::to_string(res.stats.states_visited),
         std::to_string(leaves), std::to_string(static_cast<long long>(ms)),
         std::to_string(static_cast<long long>(rate)),
         std::to_string(res.stats.restores),
         std::to_string(value_replayed_per_node).substr(0, 5),
         std::to_string(res.stats.restore_marks),
         std::to_string(res.stats.visited_bytes / 1024) + " (" +
             std::to_string(res.stats.visited_live_bytes / 1024) + ")",
         std::to_string(res.best.empty() ? 0 : res.best[0].steps)});
    json.row({{"section", std::string("throughput")},
              {"depth", cfc::bench::jv(depth)},
              {"reduction", std::string(name(opts.reduction))},
              {"states", cfc::bench::jv(res.stats.states_visited)},
              {"ms_min", cfc::bench::jv(ms)},
              {"states_per_sec", cfc::bench::jv(rate)},
              {"restores", cfc::bench::jv(res.stats.restores)},
              {"value_replayed_steps",
               cfc::bench::jv(res.stats.value_replayed_steps)},
              {"value_replayed_per_node",
               cfc::bench::jv(value_replayed_per_node)},
              {"restore_marks", cfc::bench::jv(res.stats.restore_marks)},
              {"visited_bytes", cfc::bench::jv(res.stats.visited_bytes)},
              {"visited_live_bytes",
               cfc::bench::jv(res.stats.visited_live_bytes)}});
    verify.check(res.stats.restores > 0 &&
                     res.stats.value_replayed_steps > 0,
                 "restore counters populated at depth " +
                     std::to_string(depth));
    verify.check(res.stats.visited_live_bytes <= res.stats.visited_bytes,
                 "visited live bytes never exceed reserved at depth " +
                     std::to_string(depth));
    // Throughput regression guard vs the committed baseline. Wall time is
    // the one cross-host-noisy number here, so the gate carries a 30%
    // guard band: it catches real hot-path regressions, not machine skew.
    // Rates of different reductions are different searches: the gate only
    // binds when the baseline row was recorded under this run's reduction.
    // A context mismatch was refused (and named) once, above.
    const double base_rate =
        baseline_json.empty() || !rate_context_mismatch.empty()
            ? -1.0
            : baseline_row_double(baseline_json, "throughput", depth,
                                  "states_per_sec");
    const std::string base_reduction =
        baseline_json.empty()
            ? std::string()
            : baseline_row_string(baseline_json, "throughput", depth,
                                  "reduction");
    if (base_rate > 0.0 && base_reduction != name(opts.reduction)) {
      std::printf("  [note] baseline throughput at depth %d was recorded "
                  "under reduction=%s, not %s: rate gate skipped\n",
                  depth,
                  base_reduction.empty() ? "?" : base_reduction.c_str(),
                  name(opts.reduction));
    } else if (base_rate > 0.0 && !oversubscribed) {
      verify.check(rate >= base_rate * 0.7,
                   "states/sec not below baseline (30% band) at depth " +
                       std::to_string(depth));
    } else if (base_rate > 0.0) {
      std::printf("  [note] pool of %d on %u hardware threads: baseline "
                  "rate gate advisory at depth %d (%.0f vs %.0f)\n",
                  opts.threads, hw_threads, depth, rate, base_rate);
    }
  }
  std::printf("%s\n", thr.render().c_str());

  // --- 3. Visited-state pruning.
  {
    Explorer::Result pruned;
    Explorer::Result unpruned;
    const double ms_pruned = cfc::bench::min_ms_of(opts.repeat, [&] {
      pruned = Explorer(peterson_config(16)).run(runner.get());
    });
    Explorer::Config no_prune = peterson_config(16);
    no_prune.limits.prune_visited = false;
    const double ms_unpruned = cfc::bench::min_ms_of(opts.repeat, [&] {
      unpruned = Explorer(no_prune).run(runner.get());
    });
    std::printf(
        "Depth 16: %llu states pruned (%.1fx fewer than %llu unpruned)\n\n",
        static_cast<unsigned long long>(pruned.stats.states_visited),
        pruned.stats.states_visited
            ? static_cast<double>(unpruned.stats.states_visited) /
                  static_cast<double>(pruned.stats.states_visited)
            : 0.0,
        static_cast<unsigned long long>(unpruned.stats.states_visited));
    json.row({{"section", std::string("pruning")},
              {"states_pruned_on", cfc::bench::jv(pruned.stats.states_visited)},
              {"states_pruned_off",
               cfc::bench::jv(unpruned.stats.states_visited)},
              {"ms_pruned_on", cfc::bench::jv(ms_pruned)},
              {"ms_pruned_off", cfc::bench::jv(ms_unpruned)}});
    verify.check(same_best(pruned.best, unpruned.best),
                 "pruning preserves the certified maxima");
    verify.check(pruned.stats.states_visited <=
                     unpruned.stats.states_visited,
                 "pruning never visits more states");
  }

  // --- 3b. The POR reduction rows: source-dpor vs the unreduced search
  // on the same cells, per depth — states explored, the in-run reduction
  // factor, and (when --baseline names the committed
  // BENCH_explorer_scaling.json) the factor against the baseline's
  // recorded unreduced states. Hard gate: the reduced search must never
  // explore more states than the unreduced search on the same cell, and
  // must certify identical values.
  {
    std::printf("Source-DPOR reduction vs the unreduced search:\n\n");
    TextTable red({"depth", "unreduced", "source-dpor", "factor", "races",
                   "backtracks", "sleep-blocked", "vs baseline"});
    const int depths[] = {12, 16, 20};
    for (std::size_t di = 0; di < 3; ++di) {
      const int depth = depths[di];
      Explorer::Result off;
      double ms_off = 0.0;
      if (opts.reduction == ReductionPolicy::Off) {
        off = throughput_runs[di].first;  // already measured in section 1
        ms_off = throughput_runs[di].second;
      } else {
        ms_off = cfc::bench::min_ms_of(opts.repeat, [&] {
          off = Explorer(peterson_config(depth)).run(runner.get());
        });
      }
      Explorer::Result dpor;
      double ms_dpor = 0.0;
      if (opts.reduction == ReductionPolicy::SourceDpor) {
        dpor = throughput_runs[di].first;  // already measured in section 1
        ms_dpor = throughput_runs[di].second;
      } else {
        ms_dpor = cfc::bench::min_ms_of(opts.repeat, [&] {
          dpor = Explorer(peterson_config(depth, ReductionPolicy::SourceDpor))
                     .run(runner.get());
        });
      }
      const double factor =
          dpor.stats.states_visited
              ? static_cast<double>(off.stats.states_visited) /
                    static_cast<double>(dpor.stats.states_visited)
              : 0.0;
      const long long base_states =
          baseline_json.empty()
              ? -1
              : static_cast<long long>(baseline_row_double(
                    baseline_json, "throughput", depth, "states"));
      const double base_factor =
          base_states > 0 && dpor.stats.states_visited
              ? static_cast<double>(base_states) /
                    static_cast<double>(dpor.stats.states_visited)
              : 0.0;
      red.add_row({std::to_string(depth),
                   std::to_string(off.stats.states_visited),
                   std::to_string(dpor.stats.states_visited),
                   std::to_string(factor).substr(0, 5),
                   std::to_string(dpor.stats.races_detected),
                   std::to_string(dpor.stats.backtrack_points),
                   std::to_string(dpor.stats.sleep_blocked),
                   base_states > 0
                       ? std::to_string(base_factor).substr(0, 5)
                       : std::string("n/a")});
      json.row({{"section", std::string("reduction")},
                {"depth", cfc::bench::jv(depth)},
                {"states_unreduced",
                 cfc::bench::jv(off.stats.states_visited)},
                {"states_source_dpor",
                 cfc::bench::jv(dpor.stats.states_visited)},
                {"reduction_factor", cfc::bench::jv(factor)},
                {"baseline_states", cfc::bench::jv(base_states)},
                {"reduction_factor_vs_baseline",
                 cfc::bench::jv(base_factor)},
                {"races_detected",
                 cfc::bench::jv(dpor.stats.races_detected)},
                {"backtrack_points",
                 cfc::bench::jv(dpor.stats.backtrack_points)},
                {"sleep_blocked", cfc::bench::jv(dpor.stats.sleep_blocked)},
                {"cache_hits", cfc::bench::jv(dpor.stats.cache_hits)},
                {"ms_unreduced", cfc::bench::jv(ms_off)},
                {"ms_source_dpor", cfc::bench::jv(ms_dpor)}});
      verify.check(same_best(off.best, dpor.best),
                   "source-dpor certifies the unreduced values at depth " +
                       std::to_string(depth));
      verify.check(
          dpor.stats.states_visited <= off.stats.states_visited,
          "source-dpor explores no more states than the unreduced search "
          "at depth " +
              std::to_string(depth));
      verify.check(dpor.stats.races_detected > 0 &&
                       dpor.stats.backtrack_points > 0,
                   "reduction counters populated at depth " +
                       std::to_string(depth));
      // The stateful-cache regression ceiling: the sleep-set-aware visited
      // cache composes with source-dpor, so today's reduced search must
      // never explore MORE states than the committed baseline's recorded
      // source-dpor run on the same cell.
      const long long base_dpor_states =
          baseline_json.empty()
              ? -1
              : static_cast<long long>(baseline_row_double(
                    baseline_json, "reduction", depth, "states_source_dpor"));
      if (base_dpor_states > 0) {
        verify.check(
            dpor.stats.states_visited <=
                static_cast<std::uint64_t>(base_dpor_states),
            "stateful source-dpor explores no more states than the "
            "baseline's source-dpor run at depth " +
                std::to_string(depth));
      }
    }
    std::printf("%s\n", red.render().c_str());
  }

  // --- 3c. Stateful vs stateless source-dpor on the re-convergent cell
  // (peterson-tree, n=4): the tournament tree's schedule lattice
  // re-converges massively, so the sleep-set-aware visited cache should
  // collapse both the state count and — the ISSUE headline — the
  // sleep_blocked counter, which under stateless source-dpor counts every
  // re-arrival at an already-settled interleaving. Hard gates: identical
  // certified values, never more states, and sleep_blocked down >= 10x.
  {
    std::printf(
        "Stateful vs stateless source-DPOR (peterson-tree, n=4):\n\n");
    TextTable tree({"depth", "stateless", "stateful", "factor",
                    "sleep-blk stateless", "sleep-blk stateful",
                    "cache-hits"});
    const int tree_depths[] = {12, 14};
    for (const int depth : tree_depths) {
      Explorer::Result stateless;
      Explorer::Config off_cfg = tree_dpor_config(depth);
      off_cfg.limits.prune_visited = false;  // PR 6 behavior: no cache
      const double ms_less = cfc::bench::min_ms_of(opts.repeat, [&] {
        stateless = Explorer(off_cfg).run(runner.get());
      });
      Explorer::Result stateful;
      const double ms_ful = cfc::bench::min_ms_of(opts.repeat, [&] {
        stateful = Explorer(tree_dpor_config(depth)).run(runner.get());
      });
      const double factor =
          stateful.stats.states_visited
              ? static_cast<double>(stateless.stats.states_visited) /
                    static_cast<double>(stateful.stats.states_visited)
              : 0.0;
      tree.add_row({std::to_string(depth),
                    std::to_string(stateless.stats.states_visited),
                    std::to_string(stateful.stats.states_visited),
                    std::to_string(factor).substr(0, 5),
                    std::to_string(stateless.stats.sleep_blocked),
                    std::to_string(stateful.stats.sleep_blocked),
                    std::to_string(stateful.stats.cache_hits)});
      json.row({{"section", std::string("tree_reduction")},
                {"depth", cfc::bench::jv(depth)},
                {"states_stateless",
                 cfc::bench::jv(stateless.stats.states_visited)},
                {"states_stateful",
                 cfc::bench::jv(stateful.stats.states_visited)},
                {"reduction_factor", cfc::bench::jv(factor)},
                {"sleep_blocked_stateless",
                 cfc::bench::jv(stateless.stats.sleep_blocked)},
                {"sleep_blocked_stateful",
                 cfc::bench::jv(stateful.stats.sleep_blocked)},
                {"cache_hits",
                 cfc::bench::jv(stateful.stats.cache_hits)},
                {"ms_stateless", cfc::bench::jv(ms_less)},
                {"ms_stateful", cfc::bench::jv(ms_ful)}});
      verify.check(same_best(stateless.best, stateful.best),
                   "stateful source-dpor certifies the stateless values at "
                   "depth " +
                       std::to_string(depth));
      verify.check(
          stateful.stats.states_visited <= stateless.stats.states_visited,
          "the sleep-set-aware cache never adds states at depth " +
              std::to_string(depth));
      verify.check(
          stateful.stats.sleep_blocked * 10 <=
              stateless.stats.sleep_blocked,
          "sleep_blocked drops >= 10x under the stateful cache at depth " +
              std::to_string(depth));
    }
    std::printf("%s\n", tree.render().c_str());
  }

  // --- 4. Sim-level restore mechanics: reposition a measured run K times
  // by recycled rewind and by from-scratch replay (rebuild + re-run with
  // live measurement).
  std::printf("Sim restore mechanics (peterson-tree, n=4):\n\n");
  {
    const AlgorithmRegistry& registry = AlgorithmRegistry::instance();
    const MutexFactory tree = registry.mutex("peterson-tree").factory;
    const int n = 4;
    auto keep =
        std::make_shared<std::vector<std::unique_ptr<MutexAlgorithm>>>();
    const auto rebuild = [tree, n, keep](Sim& sim) {
      keep->push_back(setup_mutex(sim, tree, n, /*sessions=*/8));
      sim.set_trace_recording(false);
    };

    Sim original;
    rebuild(original);
    original.mark_rewind_base();
    MeasureAccumulator acc(n);
    original.add_sink(acc);
    RandomScheduler rnd(opts.seed);
    drive(original, rnd, RunLimits{1200});
    const std::vector<ScheduleUnit> schedule = original.schedule_log();
    const std::size_t prefix_len = schedule.size();
    const std::uint64_t fp = original.memory().fingerprint();
    const Seq seq = original.next_seq();

    const int iters = 100;
    const double ms_rewind = cfc::bench::min_ms_of(opts.repeat, [&] {
      for (int i = 0; i < iters; ++i) {
        original.rewind_to(prefix_len, fp, seq);
        MeasureAccumulator restored(acc);  // plain-data restore
      }
    });
    const double ms_scratch = cfc::bench::min_ms_of(opts.repeat, [&] {
      for (int i = 0; i < iters; ++i) {
        Sim scratch;
        rebuild(scratch);
        MeasureAccumulator fresh(n);
        scratch.add_sink(fresh);
        for (const ScheduleUnit& u : schedule) {
          if (u.start_only) {
            scratch.ensure_started(u.pid);
          } else {
            scratch.step(u.pid);
          }
        }
      }
    });
    std::printf(
        "  prefix %zu picks x %d restores: rewind %.1f ms, "
        "from-scratch %.1f ms (%.2fx rewind vs scratch)\n\n",
        prefix_len, iters, ms_rewind, ms_scratch,
        ms_rewind > 0 ? ms_scratch / ms_rewind : 0.0);
    json.row({{"section", std::string("sim_restore")},
              {"prefix_picks",
               cfc::bench::jv(static_cast<long long>(prefix_len))},
              {"iters", cfc::bench::jv(iters)},
              {"rewind_ms", cfc::bench::jv(ms_rewind)},
              {"scratch_ms", cfc::bench::jv(ms_scratch)}});
    // Noise guard only: rewind must at least keep up with from-scratch.
    verify.check(ms_rewind <= ms_scratch * 1.25,
                 "recycled rewind not slower than from-scratch replay");
  }

  // --- 4b. Thread scaling of the parallel source-DPOR path: a
  // four-process tree search whose planner fans a wide frontier of work
  // items over per-worker engines. Certified values, states, and
  // every thread-invariant counter must match the sequential reference
  // exactly at every pool size; the speedup gate only binds on hosts with
  // >= 4 hardware threads (elsewhere the pool adds overhead, not cores).
  {
    const int depth = 14;
    std::printf(
        "Parallel source-DPOR scaling (peterson-tree, n=4, depth %d):\n\n",
        depth);
    TextTable scale({"threads", "ms", "states/sec", "speedup",
                     "work items"});
    Explorer::Result ref;
    double rate1 = 0.0;
    double rate4 = 0.0;
    for (const int threads : {1, 2, 4}) {
      ExperimentRunner pool(threads);
      Explorer::Result r;
      const double ms = cfc::bench::min_ms_of(opts.repeat, [&] {
        r = Explorer(tree_dpor_config(depth)).run(&pool);
      });
      const double rate =
          ms > 0 ? 1000.0 * static_cast<double>(r.stats.states_visited) / ms
                 : 0.0;
      if (threads == 1) {
        ref = r;
        rate1 = rate;
        verify.check(r.stats.work_items > 1,
                     "planner fans out multiple work items");
      } else {
        verify.check(same_best(ref.best, r.best) &&
                         ref.stats.states_visited == r.stats.states_visited &&
                         ref.stats.races_detected == r.stats.races_detected &&
                         ref.stats.backtrack_points ==
                             r.stats.backtrack_points &&
                         ref.stats.sleep_blocked == r.stats.sleep_blocked &&
                         ref.stats.work_items == r.stats.work_items &&
                         ref.stats.restore_marks == r.stats.restore_marks &&
                         ref.stats.violations == r.stats.violations,
                     "parallel run matches sequential at threads=" +
                         std::to_string(threads));
      }
      if (threads == 4) {
        rate4 = rate;
      }
      scale.add_row(
          {std::to_string(threads),
           std::to_string(static_cast<long long>(ms)),
           std::to_string(static_cast<long long>(rate)),
           std::to_string(rate1 > 0 ? rate / rate1 : 0.0).substr(0, 4),
           std::to_string(r.stats.work_items)});
      json.row({{"section", std::string("thread_scaling")},
                {"threads", cfc::bench::jv(threads)},
                {"ms_min", cfc::bench::jv(ms)},
                {"states_per_sec", cfc::bench::jv(rate)},
                {"speedup_vs_1", cfc::bench::jv(rate1 > 0 ? rate / rate1
                                                          : 0.0)},
                {"work_items", cfc::bench::jv(r.stats.work_items)},
                {"states", cfc::bench::jv(r.stats.states_visited)}});
    }
    std::printf("%s\n", scale.render().c_str());
    if (std::thread::hardware_concurrency() >= 4) {
      verify.check(rate4 >= 2.5 * rate1,
                   "parallel source-dpor >= 2.5x states/sec at 4 threads");
      verify.check(rate4 >= rate1,
                   "threads=4 not below threads=1 states/sec");
    } else if (rate4 < rate1) {
      // Advisory on starved hosts: with fewer hardware threads than pool
      // workers, the pool's scheduling overhead competes with the search
      // itself for the same cores, so a slowdown here does not indicate an
      // executor regression.
      std::printf(
          "  [note] threads=4 at %.2fx of threads=1 on %u hardware "
          "thread(s): pool overhead without extra cores — speedup gates "
          "are advisory on this host\n\n",
          rate1 > 0 ? rate4 / rate1 : 0.0,
          std::thread::hardware_concurrency());
    } else {
      std::printf(
          "  [note] %u hardware threads: the 4-thread speedup gate is "
          "advisory only on this host (measured %.2fx)\n\n",
          std::thread::hardware_concurrency(),
          rate1 > 0 ? rate4 / rate1 : 0.0);
    }
  }

  // --- 5. Thread-count invariance of the certified results, checked on
  // the canonical serialization: the study JSONs (timing excluded) must be
  // byte-identical between the sequential reference engine and a pool.
  {
    ExperimentRunner seq(1);
    ExperimentRunner par(4);
    const StudyResult a = run_study(peterson_exhaustive(18), &seq);
    const StudyResult b = run_study(peterson_exhaustive(18), &par);
    const StudyJsonOptions no_timing{.include_timing = false};
    const bool identical = to_json(a, no_timing) == to_json(b, no_timing);
    std::printf("Thread invariance (threads=1 vs 4): %s\n",
                identical ? "bit-identical" : "MISMATCH");
    json.study(a, {{"section", std::string("thread_invariance")}});
    json.row({{"section", std::string("thread_invariance")},
              {"identical", cfc::bench::jv(identical ? 1 : 0)},
              {"entry_steps", cfc::bench::jv(a.wc_entry.steps)},
              {"states_visited", cfc::bench::jv(a.states_visited)}});
    verify.check(identical,
                 "canonical study JSON bit-identical for threads=1 vs 4");
    verify.check(a.certified, "exhaustive search certified at depth 18");
  }

  // --- 6. The --study-out payload: a fixed pair of source-dpor studies
  // run on the --threads runner, serialized timing-free. CI invokes this
  // bench at --threads 1 and --threads 4 and byte-compares the two files
  // (`cmp`) as the cross-process determinism gate.
  if (!opts.study_out.empty()) {
    const StudyJsonOptions no_timing{.include_timing = false};
    std::vector<StudyResult> studies;
    studies.push_back(run_study(peterson_exhaustive(18), runner.get()));
    studies.push_back(run_study(StudySpec::of("splitter-tree-l2")
                                    .kind(StudyKind::Detector)
                                    .n(3)
                                    .worst_case(SearchStrategy::Exhaustive)
                                    .depth(12),
                                runner.get()));
    const std::string payload = to_json(studies, no_timing) + "\n";
    if (std::FILE* fp = std::fopen(opts.study_out.c_str(), "w")) {
      std::fwrite(payload.data(), 1, payload.size(), fp);
      std::fclose(fp);
      std::printf("Wrote canonical study payload to %s\n",
                  opts.study_out.c_str());
    } else {
      verify.check(false, "--study-out path writable");
    }
  }

  if (!opts.trace_out.empty()) {
    verify.check(cfc::obs::Tracer::stop(), "--trace-out file written");
  }
  return json.finish(verify);
}
