// Exploration correctness: the bounded exhaustive explorer must (a) certify
// worst-case values no smaller than any random search over the same
// configuration, (b) reproduce the contention the scripted Lemma-2 merge
// adversary constructs, (c) be bit-identical across thread counts,
// (d) still find safety violations, and (e) run Random seeds exactly as a
// fresh simulation per seed would.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "core/adversary.h"
#include "core/algorithm_registry.h"
#include "core/contention_detection.h"
#include "core/streaming_measures.h"
#include "mutex/peterson.h"
#include "mutex/tas_lock.h"
#include "obs/metrics.h"
#include "sched/sched.h"

namespace cfc {
namespace {

WorstCaseSearchOptions exhaustive_opts(int depth) {
  WorstCaseSearchOptions o;
  o.strategy = SearchStrategy::Exhaustive;
  o.limits.max_depth = depth;
  return o;
}

WorstCaseSearchOptions random_opts(std::uint64_t budget, int nseeds) {
  WorstCaseSearchOptions o;
  o.strategy = SearchStrategy::Random;
  o.budget_per_run = budget;
  o.seeds.clear();
  for (int i = 1; i <= nseeds; ++i) {
    o.seeds.push_back(static_cast<std::uint64_t>(i));
  }
  return o;
}

// Every random schedule of <= depth picks is one path of the exhaustive
// tree, so the exhaustive maxima dominate the random maxima field by field.
// This exercises the soundness of visited-state pruning: an unsound merge
// would let the random search win.
TEST(Explorer, ExhaustiveDominatesRandomOnSameDepth) {
  const int depth = 20;
  const MutexFactory make = Peterson::factory();
  const MutexWcSearchResult ex =
      search_mutex_worst_case(make, 2, 1, exhaustive_opts(depth));
  const MutexWcSearchResult rnd =
      search_mutex_worst_case(make, 2, 1, random_opts(depth, 32));
  EXPECT_TRUE(ex.certified);
  EXPECT_FALSE(rnd.certified);
  EXPECT_GE(ex.entry.steps, rnd.entry.steps);
  EXPECT_GE(ex.entry.registers, rnd.entry.registers);
  EXPECT_GE(ex.exit.steps, rnd.exit.steps);
  EXPECT_GE(ex.exit.registers, rnd.exit.registers);
}

TEST(Explorer, CertifiesPetersonWorstCaseWindows) {
  const MutexWcSearchResult ex =
      search_mutex_worst_case(Peterson::factory(), 2, 1, exhaustive_opts(20));
  // Clean-entry register complexity is bounded by the three shared bits and
  // certified exactly; the exit code is the single flag write.
  EXPECT_EQ(ex.entry.registers, 3);
  EXPECT_EQ(ex.exit.steps, 1);
  EXPECT_EQ(ex.exit.registers, 1);
  // The worst-case *step* row is unbounded [AT92]: a deeper bound must
  // certify a strictly larger clean-entry step maximum (longer spins fit).
  const MutexWcSearchResult shallow =
      search_mutex_worst_case(Peterson::factory(), 2, 1, exhaustive_opts(12));
  EXPECT_GT(ex.entry.steps, shallow.entry.steps);
  // Peterson spins: some paths are always cut by the depth bound.
  EXPECT_TRUE(ex.truncated);
  EXPECT_TRUE(ex.entry.truncated);
}

TEST(Explorer, CertifiesTasLockCleanEntry) {
  // The TAS lock only spins while another process holds the lock (is in its
  // CS), and such windows are not clean: the certified clean-entry cost is
  // the single test-and-set on the single lock bit.
  const MutexWcSearchResult ex =
      search_mutex_worst_case(TasLock::factory(), 2, 1, exhaustive_opts(16));
  EXPECT_EQ(ex.entry.steps, 1);
  EXPECT_EQ(ex.entry.registers, 1);
  EXPECT_EQ(ex.exit.steps, 1);
}

TEST(Explorer, BitIdenticalAcrossThreadCounts) {
  ExperimentRunner seq(1);
  ExperimentRunner par(4);
  const MutexFactory make = Peterson::factory();
  const MutexWcSearchResult a =
      search_mutex_worst_case(make, 2, 1, exhaustive_opts(16), &seq);
  const MutexWcSearchResult b =
      search_mutex_worst_case(make, 2, 1, exhaustive_opts(16), &par);
  EXPECT_EQ(a.entry.steps, b.entry.steps);
  EXPECT_EQ(a.entry.registers, b.entry.registers);
  EXPECT_EQ(a.entry.truncated, b.entry.truncated);
  EXPECT_EQ(a.exit.steps, b.exit.steps);
  EXPECT_EQ(a.exit.registers, b.exit.registers);
  EXPECT_EQ(a.schedules_tried, b.schedules_tried);
  EXPECT_EQ(a.states_visited, b.states_visited);
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_EQ(a.certified, b.certified);
}

// Bounded (preemption-limited) exploration covers a subset of the
// exhaustive space, so its maxima are sandwiched between the contention-free
// values and the exhaustive maxima.
TEST(Explorer, BoundedIsSandwichedBetweenCfAndExhaustive) {
  WorstCaseSearchOptions bounded = exhaustive_opts(16);
  bounded.strategy = SearchStrategy::Bounded;
  bounded.limits.max_preemptions = 2;
  const MutexWcSearchResult b =
      search_mutex_worst_case(Peterson::factory(), 2, 1, bounded);
  const MutexWcSearchResult ex =
      search_mutex_worst_case(Peterson::factory(), 2, 1, exhaustive_opts(16));
  EXPECT_LE(b.entry.steps, ex.entry.steps);
  EXPECT_LE(b.entry.registers, ex.entry.registers);
  // With >= 1 preemption available, the solo session (cf entry = 3 steps)
  // is in the bounded space.
  EXPECT_GE(b.entry.steps, 3);
  EXPECT_LT(b.states_visited, ex.states_visited);
}

TEST(Explorer, FindsMutualExclusionViolationInBrokenLock) {
  class NoMutex final : public MutexAlgorithm {
   public:
    explicit NoMutex(RegisterFile& mem) { r_ = mem.add_bit("nomutex.r"); }
    Task<void> enter(ProcessContext& ctx, int) override {
      co_await ctx.read(r_);
    }
    Task<void> exit(ProcessContext& ctx, int) override {
      co_await ctx.read(r_);
    }
    Task<Value> try_enter(ProcessContext& ctx, int slot, RegId) override {
      co_await enter(ctx, slot);
      co_return 1;
    }
    [[nodiscard]] int capacity() const override { return 2; }
    [[nodiscard]] int atomicity() const override { return 1; }
    [[nodiscard]] std::string algorithm_name() const override {
      return "broken";
    }

   private:
    RegId r_;
  };
  const MutexFactory broken = [](RegisterFile& mem, int) {
    return std::make_unique<NoMutex>(mem);
  };
  Explorer::Config cfg;
  cfg.nprocs = 2;
  cfg.strategy = SearchStrategy::Exhaustive;
  cfg.limits.max_depth = 10;
  cfg.setup = [&broken](Sim& sim) -> std::shared_ptr<void> {
    return setup_mutex(sim, broken, 2, 1);
  };
  const Explorer::Result res = Explorer(cfg).run();
  EXPECT_GT(res.stats.violations, 0u);

  // The violation count survives into the public search result: a
  // "certified" maximum over a broken algorithm is clearly marked unsafe.
  const MutexWcSearchResult wc =
      search_mutex_worst_case(broken, 2, 1, exhaustive_opts(10));
  EXPECT_GT(wc.violations, 0u);
}

// The Lemma-2 merge adversary is one schedule of the exhaustive space: the
// explorer must reproduce at least the contention it constructs. For the
// SelfishDetector every process performs the same fixed access sequence in
// every schedule, so the values agree exactly.
TEST(Explorer, ReproducesMergeAdversaryContentionExactly) {
  const DetectorFactory selfish = SelfishDetector::factory();
  auto keep = std::make_shared<std::vector<std::unique_ptr<Detector>>>();
  const SimSetup setup = [selfish, keep](Sim& sim) {
    keep->push_back(setup_detection(sim, selfish, 2));
  };
  const MergeResult merge = lemma2_merge(setup, 0, 1);
  ASSERT_TRUE(merge.both_terminated);
  EXPECT_TRUE(merge.both_won());  // the selfish detector is broken

  WorstCaseSearchOptions opts = exhaustive_opts(16);
  const DetectorWcSearchResult ex =
      search_detector_worst_case(selfish, 2, opts);
  EXPECT_TRUE(ex.certified);
  EXPECT_EQ(ex.best.steps, merge.max_total.steps);
  EXPECT_EQ(ex.best.registers, merge.max_total.registers);
}

TEST(Explorer, DominatesMergeAdversaryOnSplitterTree) {
  const DetectorFactory splitter = SplitterTree::factory(1);
  auto keep = std::make_shared<std::vector<std::unique_ptr<Detector>>>();
  const SimSetup setup = [splitter, keep](Sim& sim) {
    keep->push_back(setup_detection(sim, splitter, 2));
  };
  const MergeResult merge = lemma2_merge(setup, 0, 1);

  const DetectorWcSearchResult ex =
      search_detector_worst_case(splitter, 2, exhaustive_opts(24));
  EXPECT_TRUE(ex.certified);
  EXPECT_FALSE(ex.truncated);  // detectors terminate: full certification
  EXPECT_GE(ex.best.steps, merge.max_total.steps);
  // Worst-case step bound of the depth-1 splitter tree: 4 accesses.
  EXPECT_LE(ex.best.steps, 4);
  // Random sampling over the same space cannot beat the certified value.
  const DetectorWcSearchResult rnd =
      search_detector_worst_case(splitter, 2, random_opts(24, 16));
  EXPECT_LE(rnd.best.steps, ex.best.steps);
}

TEST(Explorer, TruncationIsSurfacedInReports) {
  // A random budget too small to close any window: the zero-valued report
  // must say so instead of masquerading as a certified completion.
  const MutexWcSearchResult tiny =
      search_mutex_worst_case(Peterson::factory(), 2, 1, random_opts(2, 2));
  EXPECT_TRUE(tiny.truncated);
  EXPECT_TRUE(tiny.entry.truncated);
  EXPECT_EQ(tiny.entry.steps, 0);
  // A full random run completes and is not flagged.
  const MutexWcSearchResult full =
      search_mutex_worst_case(Peterson::factory(), 2, 1,
                              random_opts(100'000, 2));
  EXPECT_FALSE(full.truncated);
  EXPECT_FALSE(full.entry.truncated);
}

TEST(Explorer, BoundedPruningPreservesValues) {
  // Under a preemption bound the visited key must include the last-running
  // pid (merging states with different `last` would prune subtrees whose
  // continuations are still in budget), and the visit mask must code the
  // budget spent. Pruned and unpruned bounded searches must certify
  // identical values. The n=3, p=2 input makes the unary budget mask carry
  // more than one bit.
  struct Input {
    MutexFactory make;
    int n;
    int preemptions;
  };
  const Input inputs[] = {
      {Peterson::factory(), 2, 1},
      {AlgorithmRegistry::instance().mutex("peterson-tree").factory, 3, 2},
  };
  for (const Input& in : inputs) {
    SCOPED_TRACE("n=" + std::to_string(in.n));
    WorstCaseSearchOptions pruned;
    pruned.strategy = SearchStrategy::Bounded;
    pruned.limits.max_depth = 14;
    pruned.limits.max_preemptions = in.preemptions;
    WorstCaseSearchOptions unpruned = pruned;
    unpruned.limits.prune_visited = false;
    const MutexWcSearchResult a =
        search_mutex_worst_case(in.make, in.n, 1, pruned);
    const MutexWcSearchResult b =
        search_mutex_worst_case(in.make, in.n, 1, unpruned);
    EXPECT_EQ(a.entry.steps, b.entry.steps);
    EXPECT_EQ(a.entry.registers, b.entry.registers);
    EXPECT_EQ(a.exit.steps, b.exit.steps);
    EXPECT_EQ(a.exit.registers, b.exit.registers);
    EXPECT_EQ(a.truncated, b.truncated);
    EXPECT_LE(a.states_visited, b.states_visited);
  }
}

TEST(Explorer, BoundedCacheKeepsTheBudgetDimension) {
  // A stored visit may prune a revisit of its state only if it had at
  // least as much preemption budget left — the unary-coded visit mask.
  // With process 0 crashing mid-entry, peterson-2p at p=2 reaches equal
  // states with different budgets spent; a cache that ignored the budget
  // certifies a clean entry of 3 steps instead of 4 here, so pruned and
  // unpruned searches must agree on every objective field.
  Explorer::Config cfg;
  cfg.nprocs = 2;
  cfg.strategy = SearchStrategy::Bounded;
  cfg.limits.max_depth = 12;
  cfg.limits.max_preemptions = 2;
  cfg.setup = [](Sim& sim) -> std::shared_ptr<void> {
    auto alg = setup_mutex(sim, Peterson::factory(), 2, 1);
    sim.crash_after(0, 2);
    return alg;
  };
  cfg.objective.fields = {MeasureField::CleanEntry, MeasureField::Exit,
                          MeasureField::CfSession, MeasureField::Total};
  Explorer::Config unpruned = cfg;
  unpruned.limits.prune_visited = false;
  const Explorer::Result a = Explorer(cfg).run();
  const Explorer::Result b = Explorer(unpruned).run();
  ASSERT_EQ(a.best.size(), b.best.size());
  for (std::size_t i = 0; i < a.best.size(); ++i) {
    EXPECT_EQ(a.best[i].steps, b.best[i].steps) << "field " << i;
    EXPECT_EQ(a.best[i].registers, b.best[i].registers) << "field " << i;
    EXPECT_EQ(a.best[i].truncated, b.best[i].truncated) << "field " << i;
  }
  EXPECT_GT(a.stats.cache_hits, 0u);
}

TEST(Explorer, BoundedMarksPreemptionStarvedLeavesInsideFrontier) {
  // max_preemptions=0 admits only solo runs; once the solo process
  // finishes (within the frontier prefix) the other is runnable but every
  // switch is over budget — the bounded space was cut, and the result must
  // say so instead of claiming an un-truncated certification.
  WorstCaseSearchOptions o;
  o.strategy = SearchStrategy::Bounded;
  o.limits.max_depth = 12;
  o.limits.max_preemptions = 0;
  const MutexWcSearchResult r =
      search_mutex_worst_case(TasLock::factory(), 2, 1, o);
  EXPECT_TRUE(r.truncated);
  EXPECT_EQ(r.entry.steps, 1);  // the solo clean entry is still found
}

TEST(Explorer, ExhaustiveIgnoresLeftoverPreemptionLimit) {
  // Reusing a Bounded limits struct with strategy=Exhaustive must not
  // silently shrink the certified space.
  WorstCaseSearchOptions leftover = exhaustive_opts(16);
  leftover.limits.max_preemptions = 0;
  const MutexWcSearchResult a =
      search_mutex_worst_case(Peterson::factory(), 2, 1, leftover);
  const MutexWcSearchResult b =
      search_mutex_worst_case(Peterson::factory(), 2, 1, exhaustive_opts(16));
  EXPECT_EQ(a.entry.steps, b.entry.steps);
  EXPECT_EQ(a.states_visited, b.states_visited);
}

TEST(Explorer, NewCountersAreThreadInvariant) {
  // restores / value_replayed_steps / visited_bytes are per-item
  // deterministic sums (the planner's cache bytes plus nothing
  // worker-dependent), so they must not depend on the pool size.
  ExperimentRunner seq(1);
  ExperimentRunner par(4);
  Explorer::Config cfg;
  cfg.nprocs = 2;
  cfg.strategy = SearchStrategy::Exhaustive;
  cfg.limits.max_depth = 14;
  cfg.setup = [](Sim& sim) -> std::shared_ptr<void> {
    return setup_mutex(sim, Peterson::factory(), 2, 1);
  };
  const Explorer explorer(cfg);
  const Explorer::Result a = explorer.run(&seq);
  const Explorer::Result b = explorer.run(&par);
  EXPECT_EQ(a.stats.restores, b.stats.restores);
  EXPECT_EQ(a.stats.value_replayed_steps, b.stats.value_replayed_steps);
  EXPECT_EQ(a.stats.visited_bytes, b.stats.visited_bytes);
  EXPECT_GT(a.stats.visited_bytes, 0u);
}

TEST(Explorer, WideFanOutStaysUnderTheWorkItemCap) {
  // The planner horizon is the largest f <= min(4, max_depth) with
  // n^f <= 4096: f = 3 at n = 9 (at most 729 items) and f = 2 at n = 17
  // (at most 289), short of the 4 levels a narrow search gets. The counts
  // are pinned, so the horizon rule cannot drift silently.
  struct WideCell {
    int n;
    int depth;
    std::uint64_t work_items;
  };
  ExperimentRunner pool(4);
  for (const WideCell c : {WideCell{9, 5, 405}, WideCell{17, 4, 289}}) {
    Explorer::Config cfg;
    cfg.nprocs = c.n;
    cfg.strategy = SearchStrategy::Exhaustive;
    cfg.limits.max_depth = c.depth;
    cfg.limits.reduction = ReductionPolicy::SourceDpor;
    cfg.setup = [n = c.n](Sim& sim) -> std::shared_ptr<void> {
      return setup_mutex(sim, TasLock::factory(), n, 1);
    };
    const Explorer::Result r = Explorer(cfg).run(&pool);
    EXPECT_EQ(r.stats.work_items, c.work_items) << "n=" << c.n;
    EXPECT_LE(r.stats.work_items, 4096u) << "n=" << c.n;
    EXPECT_FALSE(r.stats.state_budget_hit) << "n=" << c.n;
  }
}

TEST(Explorer, RandomMatchesAFreshSimPerSeed) {
  // Random seeds run as work items on one rewound Sim per worker; every
  // counter and the objective maxima must equal one freshly built Sim per
  // seed, driven by hand. Budget 14 cuts most peterson-tree runs short;
  // 200 lets most lamport-fast runs complete.
  struct RandomCell {
    const char* subject;
    int n;
    std::uint64_t budget;
  };
  // The reference leaf: the objective's fields read per process from an
  // accumulator that tracks every field.
  const auto reference_leaf = [](const Sim& sim,
                                 const MeasureAccumulator& acc) {
    ComplexityReport entry;
    ComplexityReport exit;
    for (Pid pid = 0; pid < sim.process_count(); ++pid) {
      entry = entry.max_with(acc.clean_entry_max(pid));
      exit = exit.max_with(acc.exit_max(pid));
    }
    return std::vector<ComplexityReport>{entry, exit};
  };
  const auto expect_same = [](const ComplexityReport& a,
                              const ComplexityReport& b,
                              const std::string& what) {
    EXPECT_EQ(a.steps, b.steps) << what;
    EXPECT_EQ(a.registers, b.registers) << what;
    EXPECT_EQ(a.read_steps, b.read_steps) << what;
    EXPECT_EQ(a.write_steps, b.write_steps) << what;
    EXPECT_EQ(a.read_registers, b.read_registers) << what;
    EXPECT_EQ(a.write_registers, b.write_registers) << what;
    EXPECT_EQ(a.atomicity, b.atomicity) << what;
    EXPECT_EQ(a.truncated, b.truncated) << what;
  };
  std::uint64_t completed = 0;
  std::uint64_t truncated = 0;
  for (const RandomCell c : {RandomCell{"peterson-tree", 3, 14},
                             RandomCell{"lamport-fast", 3, 200}}) {
    const MutexFactory make =
        AlgorithmRegistry::instance().mutex(c.subject).factory;
    Explorer::Config cfg;
    cfg.nprocs = c.n;
    cfg.strategy = SearchStrategy::Random;
    cfg.random_budget = c.budget;
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
      cfg.seeds.push_back(seed);
    }
    cfg.setup = [make, n = c.n](Sim& sim) -> std::shared_ptr<void> {
      return setup_mutex(sim, make, n, 1);
    };
    cfg.objective.fields = {MeasureField::CleanEntry, MeasureField::Exit};

    // The reference: one fresh Sim per seed.
    ExploreStats ref;
    std::vector<ComplexityReport> ref_best;
    for (const std::uint64_t seed : cfg.seeds) {
      Sim sim;
      const auto owner = setup_mutex(sim, make, c.n, 1);
      sim.set_trace_recording(false);
      MeasureAccumulator acc(c.n);
      sim.add_sink(acc);
      RandomScheduler rnd(seed);
      const RunOutcome out = drive(sim, rnd, RunLimits{c.budget});
      ref.states_visited += sim.schedule_log().size();
      if (out == RunOutcome::BudgetExhausted) {
        acc.mark_truncated();
        ++ref.runs_truncated;
        ref.truncated = true;
      } else {
        ++ref.runs_completed;
      }
      const std::vector<ComplexityReport> leaf = reference_leaf(sim, acc);
      if (ref_best.empty()) {
        ref_best = leaf;
      } else {
        for (std::size_t i = 0; i < leaf.size(); ++i) {
          ref_best[i] = ref_best[i].max_with(leaf[i]);
        }
      }
    }
    completed += ref.runs_completed;
    truncated += ref.runs_truncated;

    for (const int threads : {1, 4}) {
      ExperimentRunner runner(threads);
      const Explorer::Result r = Explorer(cfg).run(&runner);
      const std::string what =
          std::string(c.subject) + " threads=" + std::to_string(threads);
      for (const ExploreStatsField& f : explore_stats_fields()) {
        EXPECT_EQ(r.stats.*f.member, ref.*f.member)
            << what << " counter " << obs::metric_desc(f.metric).name;
      }
      EXPECT_EQ(r.stats.truncated, ref.truncated) << what;
      EXPECT_FALSE(r.stats.state_budget_hit) << what;
      ASSERT_EQ(r.best.size(), ref_best.size()) << what;
      for (std::size_t i = 0; i < ref_best.size(); ++i) {
        expect_same(r.best[i], ref_best[i],
                    what + " best[" + std::to_string(i) + "]");
      }
    }
  }
  // Both leaf kinds are exercised.
  EXPECT_GT(completed, 0u);
  EXPECT_GT(truncated, 0u);
}

TEST(Explorer, VisitedPruningOnlyDropsRedundantWork) {
  // Pruning must not change the certified values, only the visit count.
  WorstCaseSearchOptions pruned = exhaustive_opts(14);
  WorstCaseSearchOptions unpruned = exhaustive_opts(14);
  unpruned.limits.prune_visited = false;
  const MutexWcSearchResult a =
      search_mutex_worst_case(Peterson::factory(), 2, 1, pruned);
  const MutexWcSearchResult b =
      search_mutex_worst_case(Peterson::factory(), 2, 1, unpruned);
  EXPECT_EQ(a.entry.steps, b.entry.steps);
  EXPECT_EQ(a.entry.registers, b.entry.registers);
  EXPECT_EQ(a.exit.steps, b.exit.steps);
  EXPECT_LE(a.states_visited, b.states_visited);
}

}  // namespace
}  // namespace cfc
