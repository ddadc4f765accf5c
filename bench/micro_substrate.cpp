// A4 — google-benchmark microbenchmarks of the simulation substrate:
// events/second through the scheduler, solo mutex sessions (trace-recorded
// vs streaming-measured), full detection runs, trace measurement, and the
// per-node primitives of the certified search (accumulator snapshot copy,
// leaf objective evaluation, section changes, source-DPOR race detection
// and cut-point insertions, mark-based rewind, a step served from the
// transition table).
// These put a number on the harness itself so sweep costs in the table
// benches are predictable. Algorithms are resolved from the
// AlgorithmRegistry; results additionally land in
// BENCH_micro_substrate.json for the cross-PR perf trajectory. NOTE: this
// file uses google-benchmark's native JSON schema ({context, benchmarks})
// rather than bench_util.h's canonical "cfc.bench.v1" schema — trajectory
// tooling must branch on the top-level shape (the only bench exempt from
// the shared schema, per its google-benchmark argv handling).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/experiment.h"
#include "core/algorithm_registry.h"
#include "core/measures.h"
#include "core/streaming_measures.h"
#include "por/dependence.h"
#include "por/source_dpor.h"
#include "sched/sched.h"

namespace {

using namespace cfc;

MutexFactory lamport_fast() {
  return AlgorithmRegistry::instance().mutex("lamport-fast").factory;
}

void BM_SimReadWriteSteps(benchmark::State& state) {
  const auto iters = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Sim sim;
    const RegId r = sim.memory().add_register("r", 8);
    const Pid p = sim.spawn("p", [r, iters](ProcessContext& ctx) -> Task<void> {
      for (int i = 0; i < iters; ++i) {
        const Value v = co_await ctx.read(r);
        co_await ctx.write(r, (v + 1) & 0xff);
      }
    });
    while (sim.runnable(p)) {
      sim.step(p);
    }
    benchmark::DoNotOptimize(sim.trace().size());
  }
  state.SetItemsProcessed(state.iterations() * iters * 2);
}
BENCHMARK(BM_SimReadWriteSteps)->Arg(64)->Arg(1024);

void BM_SoloLamportSession(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Sim sim;
    auto alg = setup_mutex(sim, lamport_fast(), n, 1);
    SoloScheduler solo(0);
    drive(sim, solo);
    benchmark::DoNotOptimize(sim.trace().size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SoloLamportSession)->Arg(8)->Arg(64)->Arg(512);

void BM_TreeMutexSoloSession(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Sim sim;
    auto alg = setup_mutex(
        sim, AlgorithmRegistry::instance().mutex("thm3-exact-l2").factory, n,
        1);
    SoloScheduler solo(0);
    drive(sim, solo);
    benchmark::DoNotOptimize(sim.trace().size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TreeMutexSoloSession)->Arg(64)->Arg(512);

void BM_DetectionFullRun(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Sim sim;
    auto det = setup_detection(
        sim, AlgorithmRegistry::instance().detector("splitter-tree-l2").factory,
        n);
    RandomScheduler rnd(seed++);
    drive(sim, rnd);
    benchmark::DoNotOptimize(count_winners(sim));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DetectionFullRun)->Arg(16)->Arg(64);

void BM_TraceMeasurement(benchmark::State& state) {
  Sim sim;
  auto alg = setup_mutex(sim, lamport_fast(), 8, 50);
  RoundRobinScheduler rr;
  drive(sim, rr);
  for (auto _ : state) {
    ComplexityReport total;
    for (Pid p = 0; p < 8; ++p) {
      total = total.max_with(max_over_windows(
          sim.trace(), p, contention_free_sessions(sim.trace(), p, 8)));
    }
    benchmark::DoNotOptimize(total.steps);
  }
}
BENCHMARK(BM_TraceMeasurement);

void BM_SoloLamportSessionStreaming(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Sim sim;
    sim.set_trace_recording(false);
    MeasureAccumulator acc(n);
    sim.add_sink(acc);
    auto alg = setup_mutex(sim, lamport_fast(), n, 1);
    SoloScheduler solo(0);
    drive(sim, solo);
    benchmark::DoNotOptimize(acc.total(0).steps);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SoloLamportSessionStreaming)->Arg(8)->Arg(64)->Arg(512);

void BM_WorstCaseSearchStreaming(benchmark::State& state) {
  // The refactored hot path: random-schedule search, streaming measurement,
  // no trace materialization, single-threaded engine (so the number is the
  // per-core cost, comparable across PRs).
  ExperimentRunner seq(1);
  WorstCaseSearchOptions options;
  options.strategy = SearchStrategy::Random;
  options.seeds = {1, 2, 3, 4};
  options.budget_per_run = 50'000;
  for (auto _ : state) {
    const MutexWcSearchResult wc = search_mutex_worst_case(
        lamport_fast(), 8, /*sessions=*/2, options, &seq);
    benchmark::DoNotOptimize(wc.entry.steps);
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_WorstCaseSearchStreaming);

// --- Per-layer costs of the certified search's hot path: one benchmark
// per primitive the explorer calls at every node. ---

MutexFactory peterson_tree() {
  return AlgorithmRegistry::instance().mutex("peterson-tree").factory;
}

/// Steps `sim` along `units` units of a seeded random schedule.
void step_random(Sim& sim, RandomScheduler& rnd, int units) {
  for (int i = 0; i < units; ++i) {
    const std::optional<Pid> p = rnd.next(sim);
    if (!p) {
      return;
    }
    sim.step(*p);
  }
}

/// The fields the certified mutex searches maximize.
constexpr MeasureField kEntryExit[] = {MeasureField::CleanEntry,
                                       MeasureField::Exit};

/// An accumulator over `fields` fed 40n units of a random peterson-tree
/// run at n processes (two sessions each); `sim` keeps the run alive.
MeasureAccumulator fed_accumulator(Sim& sim, int n,
                                   std::span<const MeasureField> fields,
                                   std::unique_ptr<MutexAlgorithm>& alg) {
  sim.set_trace_recording(false);
  MeasureAccumulator acc(n, fields);
  sim.add_sink(acc);
  alg = setup_mutex(sim, peterson_tree(), n, /*sessions=*/2);
  RandomScheduler rnd(1);
  step_random(sim, rnd, 40 * n);
  sim.remove_sink(acc);
  return acc;
}

/// The explorer's node snapshot and sibling restore: acc_pool_[d] = acc_.
void copy_assign(benchmark::State& state,
                 std::span<const MeasureField> fields) {
  const auto n = static_cast<int>(state.range(0));
  Sim sim;
  std::unique_ptr<MutexAlgorithm> alg;
  const MeasureAccumulator acc = fed_accumulator(sim, n, fields, alg);
  MeasureAccumulator snap(n, fields);
  for (auto _ : state) {
    snap = acc;
    benchmark::DoNotOptimize(&snap);
    benchmark::ClobberMemory();
  }
}

void BM_AccumulatorCopyAssign(benchmark::State& state) {
  // Every field. n=6 keeps every register id in the RegIdSet mask; n=64
  // uses the spill.
  copy_assign(state, kAllMeasureFields);
}
BENCHMARK(BM_AccumulatorCopyAssign)->Arg(6)->Arg(64);

void BM_AccumulatorCopyAssignEntryExit(benchmark::State& state) {
  // The certified mutex search's accumulator: clean-entry and exit only.
  copy_assign(state, kEntryExit);
}
BENCHMARK(BM_AccumulatorCopyAssignEntryExit)->Arg(6);

void BM_LeafObjective(benchmark::State& state) {
  // The explorer's leaf evaluation of the mutex objective: one max_with
  // per field into the search's best, each a read of the accumulator's
  // max over processes.
  const auto n = static_cast<int>(state.range(0));
  Sim sim;
  std::unique_ptr<MutexAlgorithm> alg;
  const MeasureAccumulator acc = fed_accumulator(sim, n, kEntryExit, alg);
  std::vector<ComplexityReport> best(std::size(kEntryExit));
  for (auto _ : state) {
    for (std::size_t i = 0; i < best.size(); ++i) {
      best[i] = best[i].max_with(acc.max_over_pids(kEntryExit[i]));
    }
    benchmark::DoNotOptimize(best.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_LeafObjective)->Arg(6);

void BM_SectionChange(benchmark::State& state) {
  // One process's solo session as section changes only — Remainder ->
  // Entry -> Critical -> Exit -> Remainder — with n-1 processes idle in
  // their remainder regions (the contention-free study's shape). Reported
  // per section change: a flat time across n is the O(1) update.
  const auto n = static_cast<int>(state.range(0));
  MeasureAccumulator acc(n);
  constexpr Section kCycle[] = {Section::Remainder, Section::Entry,
                                Section::Critical, Section::Exit};
  TraceEvent ev;
  ev.kind = TraceEvent::Kind::SectionChange;
  ev.pid = n / 2;
  for (auto _ : state) {
    for (std::size_t i = 0; i < 4; ++i) {
      ev.from = kCycle[i];
      ev.to = kCycle[(i + 1) % 4];
      acc.on_event(ev);
    }
    benchmark::DoNotOptimize(&acc);
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_SectionChange)->Arg(8)->Arg(64)->Arg(1024);

/// A depth-14 leaf of a peterson-tree n=6 path as the explorer's
/// cut-point insertions see it: the race detector over the path, every
/// process's NextStep and the enabled mask, and the backtrack masks the
/// DFS leaves there — each node's taken branch plus the path's race
/// insertions.
struct CutLeaf {
  static constexpr int kN = 6;
  static constexpr int kDepth = 14;
  Sim sim;
  std::unique_ptr<MutexAlgorithm> alg;
  SourceDpor dpor{kN};
  std::vector<std::uint32_t> masks =
      std::vector<std::uint32_t>(static_cast<std::size_t>(kDepth) + 1, 0);
  std::vector<StepSummary> path;
  std::vector<NextStep> pends;
  std::uint32_t enabled = 0;

  /// False when the schedule ended before the cut depth.
  bool build() {
    sim.set_trace_recording(false);
    alg = setup_mutex(sim, peterson_tree(), kN, /*sessions=*/1);
    RandomScheduler rnd(3);
    for (int d = 0; d < kDepth; ++d) {
      const std::optional<Pid> p = rnd.next(sim);
      if (!p) {
        return false;
      }
      masks[static_cast<std::size_t>(d)] |= 1u << static_cast<unsigned>(*p);
      sim.step(*p);
      path.push_back(sim.last_step_summary());
      dpor.push_step(d, path.back(), masks);
    }
    for (Pid p = 0; p < kN; ++p) {
      pends.push_back(next_step_of(sim, p));
      if (sim.runnable(p)) {
        enabled |= 1u << static_cast<unsigned>(p);
      }
    }
    return true;
  }
};

void BM_SourceDporNoteCut(benchmark::State& state) {
  // The cut-point insertions at the leaf against fresh (all-zero)
  // backtrack masks: every owed insertion is new.
  CutLeaf leaf;
  if (!leaf.build()) {
    state.SkipWithError("schedule ended before the cut depth");
    return;
  }
  std::vector<std::uint32_t> masks(leaf.masks.size());
  for (auto _ : state) {
    std::fill(masks.begin(), masks.end(), 0u);
    leaf.dpor.note_cut(leaf.enabled, leaf.pends, masks);
    benchmark::DoNotOptimize(masks.data());
  }
}
BENCHMARK(BM_SourceDporNoteCut);

void BM_SourceDporNoteCutSteady(benchmark::State& state) {
  // The same leaf in steady state: the masks the DFS leaves there (taken
  // branches plus race insertions) after one cut has already inserted
  // what it owes, as at every later sibling cut under the same nodes.
  CutLeaf leaf;
  if (!leaf.build()) {
    state.SkipWithError("schedule ended before the cut depth");
    return;
  }
  leaf.dpor.note_cut(leaf.enabled, leaf.pends, leaf.masks);
  std::vector<std::uint32_t> masks(leaf.masks.size());
  for (auto _ : state) {
    std::copy(leaf.masks.begin(), leaf.masks.end(), masks.begin());
    leaf.dpor.note_cut(leaf.enabled, leaf.pends, masks);
    benchmark::DoNotOptimize(masks.data());
  }
}
BENCHMARK(BM_SourceDporNoteCutSteady);

void BM_SourceDporPushStep(benchmark::State& state) {
  // Race detection along the leaf's path in steady state: push its units
  // and pop back to the root, against the masks the DFS leaves at those
  // nodes (each descent after the first finds its insertions there).
  // Reported per pushed unit.
  CutLeaf leaf;
  if (!leaf.build()) {
    state.SkipWithError("schedule ended before the cut depth");
    return;
  }
  SourceDpor dpor(CutLeaf::kN);
  std::vector<std::uint32_t> masks = leaf.masks;
  for (auto _ : state) {
    for (std::size_t d = 0; d < leaf.path.size(); ++d) {
      dpor.push_step(static_cast<int>(d), leaf.path[d], masks);
    }
    dpor.pop_to(0);
    benchmark::DoNotOptimize(masks.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(leaf.path.size()));
}
BENCHMARK(BM_SourceDporPushStep);

void BM_SimRewindToMark(benchmark::State& state) {
  // A sibling restore deep in the DFS: rewind a peterson-tree path of 14
  // units to its mark `range(0)` units back, at n = `range(1)`, then take
  // the next step of every process that acted past the mark — the step
  // that pays the restored process's value replay. Only the rewind and
  // those steps are timed; putting the suffix back (so there is something
  // to undo) is not. One unit back means one acting pid, so /1/8 and
  // /1/1024 side by side show what the rewind still pays per process in n.
  const auto back = static_cast<int>(state.range(0));
  const auto n = static_cast<int>(state.range(1));
  const int depth = 14;
  Sim sim;
  sim.set_trace_recording(false);
  auto alg = setup_mutex(sim, peterson_tree(), n, /*sessions=*/1);
  sim.mark_rewind_base();
  RandomScheduler rnd(5);
  step_random(sim, rnd, depth - back);
  Sim::RewindMark mark;
  sim.capture_mark(mark);
  step_random(sim, rnd, back);
  const std::vector<ScheduleUnit> log = sim.schedule_log();
  std::vector<Pid> touched;
  for (std::size_t i = mark.prefix_len; i < log.size(); ++i) {
    touched.push_back(log[i].pid);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    sim.rewind_to_mark(mark);
    for (const Pid p : touched) {
      sim.step(p);
    }
    const auto t1 = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
    sim.rewind_to_mark(mark);
    for (std::size_t i = mark.prefix_len; i < log.size(); ++i) {
      sim.step(log[i].pid);
    }
  }
}
BENCHMARK(BM_SimRewindToMark)
    ->Args({1, 6})
    ->Args({4, 6})
    ->Args({1, 8})
    ->Args({1, 1024})
    ->UseManualTime();

void BM_SimStepMemoHit(benchmark::State& state) {
  // One step of a peterson-tree n=6 process at the same position, 13
  // units into a run: /1 served from the Sim's transition table (the
  // process restored from a mark, its frame left behind), /0 resuming its
  // live body (the position re-stepped by rewind_to, which forgets the
  // table). Only the step is timed.
  const bool served = state.range(0) != 0;
  const int n = 6;
  Sim sim;
  sim.set_trace_recording(false);
  auto alg = setup_mutex(sim, peterson_tree(), n, /*sessions=*/1);
  sim.mark_rewind_base();
  RandomScheduler rnd(5);
  step_random(sim, rnd, 13);
  const Pid pid = sim.schedule_log().back().pid;
  const std::size_t prefix_len = sim.schedule_log().size();
  Sim::RewindMark mark;
  sim.capture_mark(mark);
  // Record the transition: the first restore makes the process join the
  // table, and its next step replays and records.
  sim.step(pid);
  sim.rewind_to_mark(mark);
  sim.step(pid);
  for (auto _ : state) {
    if (served) {
      sim.rewind_to_mark(mark);
    } else {
      sim.rewind_to(prefix_len);
    }
    const auto t0 = std::chrono::steady_clock::now();
    sim.step(pid);
    const auto t1 = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
  }
  const Sim::TransitionStats t = sim.transition_stats();
  state.counters["served"] = static_cast<double>(t.served);
}
BENCHMARK(BM_SimStepMemoHit)->Arg(0)->Arg(1)->UseManualTime();

}  // namespace

// BENCHMARK_MAIN, defaulting --benchmark_out to the BENCH_<name>.json
// naming convention all benches follow (an explicit --benchmark_out on the
// command line still wins). The payload is google-benchmark's own JSON
// schema, not bench_util.h's row array — see the file comment.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_micro_substrate.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  const bool has_out = std::any_of(
      args.begin(), args.end(), [](const char* a) {
        return std::string_view(a).rfind("--benchmark_out=", 0) == 0;
      });
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
