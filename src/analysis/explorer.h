#ifndef CFC_ANALYSIS_EXPLORER_H
#define CFC_ANALYSIS_EXPLORER_H

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "analysis/experiment_runner.h"
#include "core/streaming_measures.h"
#include "obs/metrics.h"
#include "sched/sched.h"
#include "sched/sim.h"

namespace cfc {

/// How a worst-case search walks the schedule space.
enum class SearchStrategy : std::uint8_t {
  /// Every interleaving within the depth bound — a *certified* bound over
  /// all schedules of at most max_depth picks (hashed-state fidelity).
  Exhaustive,
  /// Every interleaving with at most max_preemptions context switches
  /// (systematic concurrency testing's preemption-bounded search): far
  /// cheaper, and empirically the schedules that expose races.
  Bounded,
  /// Seeded random schedules — the legacy sampler. A lower bound only.
  Random,
};

[[nodiscard]] const char* name(SearchStrategy s);

/// How an Exhaustive DFS reduces the schedule tree (src/por/). Both
/// policies certify the same objective maxima — the reduction only skips
/// schedules whose values are provably duplicated by an explored one —
/// which the POR differential suite asserts for every registry algorithm.
enum class ReductionPolicy : std::uint8_t {
  /// No reduction: every admissible process is a branch at every node,
  /// with the plain visited cache. The reference oracle the reduced search
  /// is differentially tested against, and the only policy the Bounded
  /// strategy accepts.
  Off,
  /// Source-DPOR (por/source_dpor.h): full sleep sets under the
  /// measurement-aware dependence relation (por/dependence.h — register
  /// conflicts + section-change adjacency, which makes the cf-session /
  /// clean-entry / exit window objectives trace-invariant), with
  /// race-driven source-set backtracking instead of full sibling
  /// branching. The default for certified Exhaustive searches built
  /// through StudySpec. Composes with the sleep-set-aware visited cache
  /// (stateful DPOR) when ExploreLimits::prune_visited is on. Its race
  /// detector keeps sets of path positions in 64-bit masks, so it accepts
  /// max_depth <= kMaxPorDepth (64) and at most kMaxPorProcs (32)
  /// processes; the Explorer constructor rejects anything wider.
  SourceDpor,
};

[[nodiscard]] const char* name(ReductionPolicy p);

/// Parses "off" | "source-dpor" (the bench --reduction flag's
/// vocabulary); nullopt on anything else.
[[nodiscard]] std::optional<ReductionPolicy> reduction_policy_from(
    std::string_view s);

/// Budgets for a DFS exploration. The fan-out is not a knob: the planner
/// horizon follows from the process count and max_depth (Explorer), so
/// every field here shapes the searched space or its reduction, never the
/// scheduling.
struct ExploreLimits {
  /// Scheduler picks per path (depth of the interleaving tree). At most
  /// kMaxPorDepth (64) under ReductionPolicy::SourceDpor.
  int max_depth = 48;
  /// Context switches per path; -1 = unlimited (Exhaustive).
  int max_preemptions = -1;
  /// DFS node budget *per engine run* — per planner walk and per work
  /// item; 0 = unlimited. Reaching it cuts the search
  /// (ExploreStats::state_budget_hit and truncated; a study reports it as
  /// truncated and not certified).
  std::uint64_t max_states = 0;
  /// Visited-state pruning (on by default): one sleep-set-aware cache
  /// (SleepCache) keyed on core/state_fingerprint x the digest of the
  /// objective's fields (x the last pid under a preemption bound). A
  /// revisit is skipped only when a stored visit's mask is a subset of
  /// the current one: the sleep set under SourceDpor (stateful DPOR), the
  /// unary-coded preemptions spent under Bounded, 0 under Off. The
  /// planner keeps one cache for its walk; every work item starts from an
  /// empty one. Under SourceDpor every skip also runs the bounded-horizon
  /// cut-point insertions (SourceDpor::note_cut) at the pruned node, and
  /// those do NOT make one cache over a whole search sound: the per-item
  /// scope is load-bearing for the values, not only for thread-count
  /// invariance. With one cache over the whole search (no planner
  /// horizon) kessels-2p n=2 d20 certifies entry [4,4] against the Off
  /// oracle's [17,4]; with pruning off it matches. false runs every
  /// policy with no cache at all.
  bool prune_visited = true;
  /// The partial-order reduction applied to Exhaustive searches (src/por/;
  /// see ReductionPolicy). Off by default at this layer; the Study layer
  /// defaults its certified Exhaustive searches to SourceDpor.
  ReductionPolicy reduction = ReductionPolicy::Off;
};

/// The statistics of one search. The counters are generated from
/// CFC_SEARCH_COUNTERS (obs/metrics.h), which documents each one; a
/// search of any strategy with the metric registry enabled exports the
/// same counters to it, in deltas, under the same names.
struct ExploreStats {
#define CFC_EXPLORE_STATS_MEMBER(id) std::uint64_t id = 0;
  CFC_SEARCH_COUNTERS(CFC_EXPLORE_STATS_MEMBER)
#undef CFC_EXPLORE_STATS_MEMBER
  /// Sizes, not counters, so they are not in the list: the bytes the
  /// planner's cache reserved, and the bytes of its *live* entries
  /// (occupied slots + live spill nodes; visited_bytes also counts the
  /// spill freelist). Worker caches are cleared per item and not counted
  /// (their capacity is thread-dependent). The registry's
  /// visited_live_bytes gauge is a different figure: the largest live
  /// cache of any engine run.
  std::uint64_t visited_bytes = 0;
  std::uint64_t visited_live_bytes = 0;
  /// True iff some path was cut off before terminating: the objective max
  /// is certified only over the explored bounded space. (For waiting
  /// algorithms, whose schedule space is infinite, this is unavoidable.)
  bool truncated = false;
  /// True iff an engine run hit max_states: the *bounded* space itself was
  /// not fully covered, so the result is not certified even within the
  /// bounds.
  bool state_budget_hit = false;

  void merge(const ExploreStats& o);
};

/// One search counter: its ExploreStats member and its registry row (whose
/// metric_desc() carries the name).
struct ExploreStatsField {
  std::uint64_t ExploreStats::*member;
  obs::Metric metric;
};

/// The counter table generated from CFC_SEARCH_COUNTERS, in list order.
/// Backs merge() and the explorer's metric flush.
[[nodiscard]] std::span<const ExploreStatsField> explore_stats_fields();

/// The measurement fields an exploration maximizes: an ordered list of
/// MeasureFields, each maximized over processes and over every evaluated
/// leaf (completed or truncated run); Result::best[i] is fields[i]. The
/// explorer builds its MeasureAccumulator with exactly these fields, so
/// the other measures cost nothing per state, and keys its visited cache
/// on that accumulator's digest, which hashes exactly these fields — the
/// pruning key is sound for the objective by construction. Every field is
/// monotone along a run (extending a run never decreases a window maximum
/// or a total), which visited-state pruning relies on. Empty = pure safety
/// exploration (no objective, no measurement).
struct ExploreObjective {
  std::vector<MeasureField> fields;
};

/// A DFS over scheduler choices with configurable budgets, mark-based
/// backtracking, and visited-state pruning — the schedule-space
/// exploration engine behind the certified worst-case searches.
///
/// One DFS, one fan-out: every Exhaustive and Bounded search runs the same
/// walk — a sequential planner over the top f levels emitting one work
/// item per horizon node, then the items on the ExperimentRunner's
/// workers. The horizon f is the largest f <= min(4, max_depth) with
/// n^f <= 4096, so it depends on the process count and depth alone. The
/// planner and the per-item caches define the search and every count it
/// reports; the executor only decides which worker runs which item. The
/// policy only picks a node's starting branch mask (SourceDpor workers: one
/// seed branch grown by race-driven insertions; the planner, Off and
/// Bounded: every admissible process), whether sleep sets transfer to
/// children (SourceDpor only), and the visited cache's visit mask
/// (ExploreLimits::prune_visited).
/// Off, the unreduced reference oracle, is also the Bounded strategy's walk.
///
/// Mechanics: each engine keeps ONE live simulation and descends by
/// stepping it, ordering branches continue-last-pid-first so the
/// restore-free first descent walks the preemption-free spine. Coroutine
/// frames cannot be copied, so every branching node captures a
/// Sim::RewindMark (memory + per-process state, O(registers + processes))
/// and its MeasureAccumulator snapshot into per-depth pools. The
/// accumulator tracks only the objective's fields, so the snapshot holds
/// only those: its trivially copyable per-process records share one
/// buffer, so the copy is one memmove while every register id fits the
/// RegIdSet mask (ids past it add their spill vectors). A leaf reads each
/// field's max over processes from the accumulator, one max_with per
/// field. A sibling restore rewinds the live Sim to the mark in place
/// (Sim::rewind_to_mark — only the processes that acted below the node
/// are value-replayed, each at its next step, and only registers written
/// below the node are rewritten) and restores the accumulator by the same
/// flat assignment. Source-DPOR workers capture every process's NextStep
/// per node incrementally (the parent's captures plus the pid just
/// stepped). Steady state, a restore performs zero Sim heap allocation.
///
/// Parallelism: the planner's work items partition the tree below its
/// horizon into independent subtrees. Workers claim item indices from one
/// shared atomic counter, the same dispenser ExperimentRunner::parallel_for
/// uses, and each runs its items on one private Sim. Random seeds are
/// items of the same loop: a seed rewinds the worker's Sim to the run
/// start and drives a RandomScheduler, with no planner and no DFS. Per-item
/// results reduce in item index order, so reports are bit-identical for
/// every thread count, and every strategy flushes the same counters to the
/// metric registry.
class Explorer {
 public:
  /// Rebuilds the simulation under exploration and returns an owner handle
  /// for objects that must outlive it (the algorithm instance holding the
  /// register layout). Must be deterministic — it runs once per engine.
  /// The engine releases the handle before it destroys the Sim.
  using SetupFn = std::function<std::shared_ptr<void>(Sim&)>;

  struct Config {
    int nprocs = 0;             ///< processes the setup spawns
    SetupFn setup;              ///< registers + processes + sim config
    SearchStrategy strategy = SearchStrategy::Exhaustive;
    ExploreLimits limits;       ///< DFS budgets (Exhaustive/Bounded)
    std::vector<std::uint64_t> seeds;  ///< Random: one run per seed
    std::uint64_t random_budget = 200'000;  ///< Random: steps per run
    ExploreObjective objective;
  };

  struct Result {
    ExploreStats stats;
    /// best[i]: the max of objective.fields[i] over all evaluated leaves;
    /// empty when no leaf was evaluated or the objective is empty. Reports
    /// carry truncated=true when any contributing run was cut off.
    std::vector<ComplexityReport> best;
  };

  explicit Explorer(Config cfg);

  /// Runs the exploration: Exhaustive and Bounded run the planner, then
  /// its work items; Random's items are its seeds, one schedule each. The
  /// items run on the runner's workers through one loop, each worker on
  /// one Sim rewound between items. `runner == nullptr` uses the shared
  /// pool.
  [[nodiscard]] Result run(ExperimentRunner* runner = nullptr) const;

 private:
  Config cfg_;
};

}  // namespace cfc

#endif  // CFC_ANALYSIS_EXPLORER_H
