#include "analysis/explorer.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <span>
#include <stdexcept>
#include <utility>

#include "analysis/visited_table.h"
#include "core/state_fingerprint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "por/dependence.h"
#include "por/sleep_sets.h"
#include "por/source_dpor.h"

namespace cfc {

const char* name(SearchStrategy s) {
  switch (s) {
    case SearchStrategy::Exhaustive:
      return "exhaustive";
    case SearchStrategy::Bounded:
      return "bounded";
    case SearchStrategy::Random:
      return "random";
  }
  return "unknown";
}

const char* name(ReductionPolicy p) {
  switch (p) {
    case ReductionPolicy::Off:
      return "off";
    case ReductionPolicy::SourceDpor:
      return "source-dpor";
  }
  return "unknown";
}

std::optional<ReductionPolicy> reduction_policy_from(std::string_view s) {
  if (s == "off") {
    return ReductionPolicy::Off;
  }
  if (s == "source-dpor") {
    return ReductionPolicy::SourceDpor;
  }
  return std::nullopt;
}

std::span<const ExploreStatsField> explore_stats_fields() {
#define CFC_STATS_FIELD(id) \
  ExploreStatsField{&ExploreStats::id, obs::Metric::id},
  static constexpr ExploreStatsField kFields[] = {
      CFC_SEARCH_COUNTERS(CFC_STATS_FIELD)};
#undef CFC_STATS_FIELD
  return kFields;
}

void ExploreStats::merge(const ExploreStats& o) {
  for (const ExploreStatsField& f : explore_stats_fields()) {
    this->*f.member += o.*f.member;
  }
  visited_bytes += o.visited_bytes;
  visited_live_bytes += o.visited_live_bytes;
  truncated = truncated || o.truncated;
  state_budget_hit = state_budget_hit || o.state_budget_hit;
}

namespace {

/// Index-wise max_with reduction of per-item objective report vectors.
void merge_best(std::vector<ComplexityReport>& best,
                const std::vector<ComplexityReport>& leaf) {
  if (leaf.empty()) {
    return;
  }
  if (best.empty()) {
    best = leaf;
    return;
  }
  const std::size_t k = std::min(best.size(), leaf.size());
  for (std::size_t i = 0; i < k; ++i) {
    best[i] = best[i].max_with(leaf[i]);
  }
}

/// One unit of the parallel execution: a realizable, violation-free
/// schedule prefix of planner picks (`len` pids at `offset` in the plan's
/// flat prefix store) and the DFS state at its horizon node — sleep mask,
/// last pick, preemptions spent. Self-contained — any worker can claim it,
/// reposition its private Sim, and run the subtree; race detection below
/// the horizon is per-path (the position masks live in the worker's own
/// SourceDpor trace), so items share no mutable state.
struct WorkItem {
  std::uint32_t offset = 0;
  std::uint32_t len = 0;
  std::uint32_t sleep = 0;
  Pid last = -1;
  int preempt = 0;
};

/// The planner's output: the work items of one search and their prefixes,
/// stored back to back in one flat vector.
struct Plan {
  int horizon = 0;
  std::vector<Pid> prefixes;
  std::vector<WorkItem> items;

  [[nodiscard]] std::span<const Pid> prefix(const WorkItem& item) const {
    return {prefixes.data() + item.offset, item.len};
  }
};

/// One DFS engine: owns the live simulation, the live accumulator, the
/// visited cache, the recycled scratch pools (per-depth branch masks,
/// accumulator snapshots and rewind marks), and — in a source-DPOR worker
/// — the per-path race detector. Descends by stepping the live sim and
/// backtracks to per-depth RewindMarks (Sim::rewind_to_mark).
///
/// Two entry points over the one dfs(): plan() walks the top levels and
/// emits work items, run_item() executes one item. run_seed() is the
/// Random strategy's item: one seeded schedule, no DFS. A worker reuses
/// one CellExplorer — and its Sim — across every item it claims.
class CellExplorer {
 public:
  explicit CellExplorer(const Explorer::Config& cfg)
      : cfg_(cfg),
        acc_(cfg.nprocs, cfg.objective.fields),
        sleep_sets_(cfg.limits.reduction == ReductionPolicy::SourceDpor),
        bounded_(cfg.limits.max_preemptions >= 0) {
    backtrack_.assign(
        static_cast<std::size_t>(std::max(cfg.limits.max_depth, 0)) + 1,
        SourceDpor::kForeignNode);
  }

  /// Phase 1: walks the top `into.horizon` levels of the tree with FULL
  /// branching over every admissible process (plus the measurement-aware
  /// sleep transfer under SourceDpor), emitting one WorkItem per horizon
  /// node reached. Runs on the calling thread only, so every counter it
  /// touches — including the planner levels' states/leaves/violations/
  /// sleep_blocked — is thread-count invariant by construction.
  ///
  /// Soundness of stopping worker race insertions at the horizon
  /// (SourceDpor::kForeignNode masks over prefix depths): full branching
  /// modulo sleep is a maximal persistent set at every planner node, and
  /// source sets only ever need a subset of a persistent set — any
  /// reordering of the prefix a subtree race could demand is already a
  /// planner branch, or asleep and therefore covered by a same-length
  /// explored reordering (the classic sleep-set argument).
  void plan(Plan& into, Explorer::Result& out) {
    out_ = &out;
    plan_ = &into;
    begin_metrics();
    reset_sim();
    root_depth_ = 0;
    dfs(0, /*last=*/-1, /*sleep=*/0, /*preempt=*/0);
    plan_ = nullptr;
    // The planner's cache lives for the whole walk (it is what prunes
    // re-convergent horizon states), so its footprint is deterministic.
    // Worker caches are left out of the byte counters: their capacity
    // depends on which items a worker claimed.
    out.stats.visited_bytes += cache_.bytes();
    out.stats.visited_live_bytes += cache_.live_bytes();
    flush_metrics();
  }

  /// Phase 2: executes one work item. Repositions the worker's Sim at the
  /// run start (claim()), then re-steps the prefix live (the planner
  /// proved it realizable and violation-free). Under SourceDpor, prefix
  /// units join the race detector's trace with foreign-node masks.
  void run_item(const WorkItem& item, std::span<const Pid> prefix,
                Explorer::Result& out) {
    claim(out);
    if (dpor_) {
      dpor_->clear();
    } else if (sleep_sets_) {
      dpor_.emplace(cfg_.nprocs);  // workers only: the planner never races
    }
    // A fresh cache per item (capacity kept): hits depend only on the
    // item's own subtree, so every counter is identical at every thread
    // count; and under SourceDpor the values stay the oracle's — the
    // cut-point insertions at hits do NOT make one cache over a whole
    // search sound (ExploreLimits::prune_visited has the measured failure).
    cache_.clear();
    std::fill(backtrack_.begin(), backtrack_.end(),
              SourceDpor::kForeignNode);
    nodes_ = 0;
    stop_ = false;
    int depth = 0;
    for (const Pid p : prefix) {
      if (!sim_->runnable(p)) {
        throw std::logic_error(
            "Explorer: work-item prefix diverged from the planner's run");
      }
      sim_->step(p);
      if (dpor_) {
        dpor_->push_step(depth, sim_->last_step_summary(), backtrack_);
      }
      ++depth;
    }
    root_depth_ = depth;
    dfs(depth, item.last, item.sleep, item.preempt);
    if (dpor_) {
      // Per-item flush of the race detector's counters (clear() resets
      // them): the deltas land in the item's own slot and merge in item
      // index order, keeping the totals thread-count invariant.
      out.stats.races_detected += dpor_->stats().races_detected;
      out.stats.backtrack_points += dpor_->stats().backtrack_points;
    }
    flush_metrics();
  }

  /// The Random strategy's work item: one seeded random schedule of at
  /// most random_budget picks from the run start, on the same worker Sim
  /// (claim()). A lower bound only: it evaluates the objective at its one
  /// leaf and counts its picks as states.
  void run_seed(std::uint64_t seed, Explorer::Result& out) {
    claim(out);
    RandomScheduler rnd(seed);
    const RunOutcome outcome =
        drive(*sim_, rnd, RunLimits{cfg_.random_budget});
    out.stats.states_visited += sim_->schedule_log().size();
    if (outcome == RunOutcome::BudgetExhausted) {
      leaf_truncated();
    } else {
      leaf_completed();
    }
    flush_metrics();
  }

 private:
  /// Starts one work item or seed: the first builds the worker's private
  /// Sim; later ones rewind it to the run start in place with a fresh
  /// accumulator. Repositioning is part of claiming the item, not a
  /// sibling backtrack, so it does not count into restores; and the base
  /// restore leaves every process unstarted, so nothing is replayed.
  void claim(Explorer::Result& out) {
    out_ = &out;
    begin_metrics();
    if (!sim_) {
      reset_sim();
    } else {
      sim_->rewind_to(0);
      // The sink address is stable.
      acc_ = MeasureAccumulator(cfg_.nprocs, cfg_.objective.fields);
    }
  }

  void reset_sim() {
    sim_ = std::make_unique<Sim>();
    replay_cursor_ = 0;
    owner_ = cfg_.setup(*sim_);
    sim_->set_trace_recording(false);
    sim_->mark_rewind_base();
    acc_ = MeasureAccumulator(cfg_.nprocs, cfg_.objective.fields);
    if (!cfg_.objective.fields.empty()) {
      sim_->add_sink(acc_);  // nothing to measure without an objective
    }
  }

  /// Captures the node checkpoint the siblings restore to: the accumulator
  /// snapshot and the RewindMark, both held in per-depth pools, so steady
  /// state this allocates nothing.
  void capture_node(int depth) {
    ensure_pools(depth);
    const auto d = static_cast<std::size_t>(depth);
    acc_pool_[d] = acc_;
    sim_->capture_mark(mark_pool_[d]);
    ++out_->stats.restore_marks;
  }

  /// Repositions the engine at the node checkpointed by capture_node at
  /// `depth`: the mark-based partial restore (Sim::rewind_to_mark) —
  /// only processes that acted below the node are value-replayed, at
  /// their next step (flush_metrics counts the units into
  /// value_replayed_steps) — plus the node's accumulator snapshot.
  void restore(int depth) {
    // Rewinds are far too frequent to record individually; sample 1/256
    // so traces show representative restore costs without drowning.
    ++rewind_tick_;
    const obs::TraceSpan rewind_span(
        (rewind_tick_ & 0xffu) == 0u ? "explorer.rewind" : nullptr);
    ++out_->stats.restores;
    const auto d = static_cast<std::size_t>(depth);
    sim_->rewind_to_mark(mark_pool_[d]);
    acc_ = acc_pool_[d];  // the sink stays attached; plain-data restore
  }

  /// Visited-cache key: state fingerprint x the accumulator digest, which
  /// hashes exactly the objective's fields (so the key is sound for the
  /// objective by construction); the visit mask is the cache's value
  /// dimension, not part of the key. Under a preemption bound the
  /// last-scheduled pid is part of the state: futures continuing it are
  /// free while switches cost budget, so merging across different `last`
  /// would prune feasible subtrees.
  [[nodiscard]] std::uint64_t cache_key(Pid last) const {
    std::uint64_t h = state_fingerprint(*sim_);
    if (!cfg_.objective.fields.empty()) {
      h = fingerprint_combine(h, acc_.digest());
    }
    if (bounded_) {
      h = fingerprint_combine(h, static_cast<std::uint64_t>(last) + 1);
    }
    return h;
  }

  /// Looks the node up in the visited cache and records the visit; true
  /// (counted in cache_hits) when a stored visit subsumes it — one
  /// whose mask is a subset of this one's explored every behavior this
  /// visit could (SleepCache). The mask is the sleep set (always 0 under
  /// Off exhaustive), or under a preemption bound the budget already spent,
  /// unary-coded, so "a stored visit had at least as much budget left" is
  /// the same subset test.
  [[nodiscard]] bool cache_hit(Pid last, std::uint32_t sleep, int preempt) {
    if (!cfg_.limits.prune_visited) {
      return false;
    }
    const std::uint32_t mask = bounded_ ? (1u << preempt) - 1u : sleep;
    if (!cache_.check_and_insert(cache_key(last), mask)) {
      return false;
    }
    ++out_->stats.cache_hits;
    return true;
  }

  /// Folds the leaf's objective fields into best: one max_with per field,
  /// each a read of the accumulator's max over processes.
  void eval_leaf(bool truncated) {
    const std::vector<MeasureField>& fields = cfg_.objective.fields;
    if (fields.empty()) {
      return;
    }
    if (truncated) {
      acc_.mark_truncated();  // cleared by the next backtrack restore
    }
    std::vector<ComplexityReport>& best = out_->best;
    if (best.empty()) {
      best.resize(fields.size());  // once per engine run
    }
    for (std::size_t i = 0; i < fields.size(); ++i) {
      best[i] = best[i].max_with(acc_.max_over_pids(fields[i]));
    }
  }

  void leaf_completed() {
    ++out_->stats.runs_completed;
    eval_leaf(false);
  }

  void leaf_truncated() {
    ++out_->stats.runs_truncated;
    out_->stats.truncated = true;
    eval_leaf(true);
  }

  /// Grows the per-depth scratch pools to cover `depth`.
  void ensure_pools(int depth) {
    const auto need = static_cast<std::size_t>(depth) + 1;
    while (acc_pool_.size() < need) {
      acc_pool_.emplace_back(cfg_.nprocs, cfg_.objective.fields);
    }
    if (mark_pool_.size() < need) {
      mark_pool_.resize(need);
    }
  }

  /// Captures every process's NextStep into the flat per-depth pend pool:
  /// slot [depth*nprocs, (depth+1)*nprocs) replaces a kMaxPorProcs array in
  /// every recursion frame. Descendants only write deeper slots, so a
  /// frame's capture survives its recursive calls; frames re-derive the
  /// pointer via pend_at() after recursing, so pool growth never dangles a
  /// span.
  ///
  /// Incremental below the engine run's root (the planner root, or a work
  /// item's horizon node): a unit of p changes only p's own status, crash
  /// arming and pending access, so a node copies its parent's slot — still
  /// intact, since the parent is suspended in this recursion — and re-reads
  /// next_step_of only for `last`, the pid whose unit led here
  /// (PorLocality.NextStepOfOthersSurvivesAStep pins that locality).
  void capture_pendings(int depth, Pid last) {
    const auto np = static_cast<std::size_t>(cfg_.nprocs);
    const std::size_t base = static_cast<std::size_t>(depth) * np;
    if (pend_pool_.size() < base + np) {
      pend_pool_.resize(base + np);
    }
    NextStep* out = pend_pool_.data() + base;
    if (depth == root_depth_) {
      for (Pid p = 0; p < cfg_.nprocs; ++p) {
        out[static_cast<std::size_t>(p)] = next_step_of(*sim_, p);
      }
      return;
    }
    std::copy_n(out - np, np, out);
    out[static_cast<std::size_t>(last)] = next_step_of(*sim_, last);
  }

  [[nodiscard]] std::span<const NextStep> pend_at(int depth) const {
    const auto np = static_cast<std::size_t>(cfg_.nprocs);
    return {pend_pool_.data() + static_cast<std::size_t>(depth) * np, np};
  }

  /// SourceDpor: placement-bucket and droppable-unit insertions for a
  /// depth-horizon cut (SourceDpor::note_cut). Uses the cut node's own
  /// pool slot — nothing else captured at this depth (the node returns
  /// without branching).
  void cut_point_insertions(int depth, Pid last, std::uint32_t sleep) {
    capture_pendings(depth, last);
    std::uint32_t enabled = 0;
    for (Pid q = 0; q < cfg_.nprocs; ++q) {
      if (sim_->runnable(q) && ((sleep >> q) & 1u) == 0) {
        enabled |= 1u << static_cast<unsigned>(q);
      }
    }
    dpor_->note_cut(enabled, pend_at(depth), backtrack_);
  }

  /// Node-entry outcome of classify_node, with the depth-horizon cut
  /// distinguished so a source-DPOR worker can attach its cut-point
  /// insertions to it.
  enum class NodeEntry : std::uint8_t {
    Interior,  ///< explore branches
    Leaf,      ///< completed run, or cut by the state budget
    DepthCut,  ///< truncated by the depth horizon
  };

  /// Leaf and budget checks at node entry (the single definition of the
  /// nodes_/states_visited/leaf accounting the reduced-vs-unreduced stat
  /// comparisons rely on). The nodes_ budget (ExploreLimits::max_states)
  /// is per engine run: per planner walk, per work item.
  [[nodiscard]] NodeEntry classify_node(int depth) {
    ++nodes_;
    ++out_->stats.states_visited;
    if ((nodes_ & 0x1fffu) == 0u) {
      flush_metrics();  // periodic export; cheap when disabled
    }
    if (!sim_->any_runnable()) {
      leaf_completed();
      return NodeEntry::Leaf;
    }
    if (depth >= cfg_.limits.max_depth) {
      leaf_truncated();
      return NodeEntry::DepthCut;
    }
    if (cfg_.limits.max_states != 0 && nodes_ >= cfg_.limits.max_states) {
      stop_ = true;
      out_->stats.state_budget_hit = true;
      leaf_truncated();  // the cut path counts like any truncated leaf
      return NodeEntry::Leaf;
    }
    return NodeEntry::Interior;
  }

  /// Continue-last-pid-first, then ascending pid: the restore-free first
  /// descent stays on the preemption-free spine.
  [[nodiscard]] static Pid pick(std::uint32_t mask, Pid last) {
    return (last != -1 && ((mask >> last) & 1u) != 0)
               ? last
               : static_cast<Pid>(std::countr_zero(mask));
  }

  /// The one DFS, for every policy and both phases. Policy changes three
  /// things only: (1) the branch mask a node starts from — a source-DPOR
  /// worker seeds ONE branch and the race detector (por/source_dpor.h)
  /// inserts more while the node's loop is suspended in recursion; the
  /// planner, Off and Bounded take every admissible process (enabled,
  /// awake, within the preemption budget); (2) sleep transfer — only under
  /// SourceDpor does a child keep asleep the sleepers independent of the
  /// unit just taken; elsewhere its sleep mask is 0; (3) the cache's visit
  /// mask (cache_hit). A planner horizon node is emitted as a work item,
  /// not entered: the worker's dfs classifies it, so node accounting stays
  /// disjoint and planner-level leaves are recorded once, ever.
  void dfs(int depth, Pid last, std::uint32_t sleep, int preempt) {
    if (plan_ != nullptr && depth == plan_->horizon) {
      // Stateful pruning across work items: an equal horizon state already
      // emitted under a subsuming mask covers this one. No insertions are
      // owed: every planner node full-branches over a maximal persistent
      // set, so any prefix reordering a skipped subtree's race could
      // demand is already a planner branch.
      if (cache_hit(last, sleep, preempt)) {
        return;
      }
      plan_->items.push_back(WorkItem{
          static_cast<std::uint32_t>(plan_->prefixes.size()),
          static_cast<std::uint32_t>(path_.size()), sleep, last, preempt});
      plan_->prefixes.insert(plan_->prefixes.end(), path_.begin(),
                             path_.end());
      ++out_->stats.work_items;
      return;
    }
    switch (classify_node(depth)) {
      case NodeEntry::Leaf:
        // Completed, or cut by the state budget — a budget cut leaves the
        // result uncertified anyway, so there is nothing for cut-point
        // insertions to protect.
        return;
      case NodeEntry::DepthCut:
        // Bounded-search soundness (SourceDpor::note_cut): the units
        // beyond the horizon never execute, so their races never seed the
        // reorderings that run the cut-off processes earlier. Insert each
        // enabled process's captured pending unit at its placement
        // buckets along the path instead. Sleeping processes are covered
        // by reorderings of equal length, so the sleep argument stands
        // and they are skipped.
        if (dpor_) {
          cut_point_insertions(depth, last, sleep);
        }
        return;
      case NodeEntry::Interior:
        break;
    }
    if (cache_hit(last, sleep, preempt)) {
      // A skipped subtree still owes a source-DPOR worker's path its
      // (path-dependent) race insertions; the cut-point insertions
      // re-place them conservatively, as at a DepthCut — enough within
      // one item's cache, not across a whole search (see run_item).
      if (dpor_) {
        cut_point_insertions(depth, last, sleep);
      }
      return;
    }
    std::uint32_t enabled = 0;
    for (Pid p = 0; p < cfg_.nprocs; ++p) {
      if (sim_->runnable(p)) {
        enabled |= 1u << static_cast<unsigned>(p);
      }
    }
    out_->stats.sleep_blocked +=
        static_cast<std::uint64_t>(std::popcount(enabled & sleep));
    std::uint32_t avail = enabled & ~sleep;
    if (avail == 0) {
      // Every enabled branch is asleep: each is a reordering of an
      // explored schedule — not a leaf of the reduced tree.
      return;
    }
    if (bounded_ && last != -1 && preempt >= cfg_.limits.max_preemptions) {
      avail &= 1u << static_cast<unsigned>(last);  // switches over budget
      if (avail == 0) {
        // Runnable processes exist but every switch is over the preemption
        // budget: the bounded space ends here.
        leaf_truncated();
        return;
      }
    }

    const auto d = static_cast<std::size_t>(depth);
    backtrack_[d] = dpor_ ? 1u << static_cast<unsigned>(pick(avail, last))
                          : avail;
    // Node checkpoint for sibling restores. A single full-branching branch
    // needs none (the parent restores for us); a source-DPOR worker does
    // not know its branch count up front (insertions arrive later). More
    // than one bit set, tested without a popcount (a libgcc call in
    // builds without -mpopcnt).
    if (dpor_ || (avail & (avail - 1)) != 0) {
      capture_node(depth);
    }
    if (sleep_sets_) {
      capture_pendings(depth, last);
    }

    bool first = true;
    while (!stop_) {
      const std::uint32_t todo = backtrack_[d] & enabled & ~sleep;
      if (todo == 0) {
        break;
      }
      const Pid p = pick(todo, last);
      if (!first) {
        restore(depth);
      }
      first = false;
      const std::size_t trace_len = dpor_ ? dpor_->size() : 0;
      bool violated = false;
      try {
        sim_->step(p);
      } catch (const MutualExclusionViolation&) {
        ++out_->stats.violations;
        violated = true;  // sim is poisoned; the next iteration restores it
      }
      if (dpor_) {
        // Race-detect even the violating unit (its partial summary covers
        // everything that took effect): the reorderings its races demand
        // may be perfectly safe schedules.
        dpor_->push_step(depth, sim_->last_step_summary(), backtrack_);
      }
      if (!violated) {
        const std::uint32_t child_sleep =
            sleep_sets_
                ? transfer_sleep(
                      SleepSet(sleep & ~(1u << static_cast<unsigned>(p))),
                      sim_->last_step_summary(), pend_at(depth))
                      .mask()
                : 0u;
        path_.push_back(p);
        dfs(depth + 1, p, child_sleep,
            preempt + ((last != -1 && p != last) ? 1 : 0));
        path_.pop_back();
      }
      if (dpor_) {
        dpor_->pop_to(trace_len);
      }
      // The explored (or excluded-violating) branch goes to sleep for its
      // later siblings: schedules starting with it here are covered.
      sleep |= 1u << static_cast<unsigned>(p);
    }
  }

  /// Starts a fresh metric epoch for the engine run about to begin (the
  /// flush cursor tracks out_->stats, which each plan/run_item starts from
  /// zero).
  void begin_metrics() { flushed_ = ExploreStats{}; }

  /// First folds the Sim's value-replay growth since the last flush into
  /// value_replayed_steps: restores defer the replay to each touched
  /// process's next step, so the Sim counts it. Then
  /// exports the counter growth since the last flush into the global
  /// registry. Deltas rather than totals so per-worker shard sums equal
  /// the true totals regardless of which worker ran what; a no-op (one
  /// relaxed load) while the registry is disabled. Reads out_->stats only
  /// — the registry never feeds back into the search, so enabling it
  /// cannot change any result.
  void flush_metrics() {
    const std::uint64_t replayed = sim_->value_replayed_units();
    out_->stats.value_replayed_steps += replayed - replay_cursor_;
    replay_cursor_ = replayed;
    obs::MetricRegistry& m = obs::MetricRegistry::global();
    if (!m.enabled()) {
      return;
    }
    const ExploreStats& s = out_->stats;
    for (const ExploreStatsField& f : explore_stats_fields()) {
      m.add(f.metric, s.*f.member - flushed_.*f.member);
    }
    flushed_ = s;
    m.set_max(obs::Metric::visited_live_bytes, cache_.live_bytes());
  }

  const Explorer::Config& cfg_;
  Explorer::Result* out_ = nullptr;
  Plan* plan_ = nullptr;  ///< set while plan() walks; null in workers
  std::unique_ptr<Sim> sim_;
  std::shared_ptr<void> owner_;  ///< after sim_: released before it dies
  MeasureAccumulator acc_;
  /// The visited cache. Planner: one cache across the whole walk. Worker:
  /// cleared per item.
  SleepCache cache_;
  std::vector<Pid> path_;  ///< picks along the current path (planner prefixes)
  /// Flat per-depth pending captures (capture_pendings / pend_at): one
  /// contiguous slab instead of a kMaxPorProcs array per recursion frame.
  std::vector<NextStep> pend_pool_;
  std::vector<MeasureAccumulator> acc_pool_;  ///< per-depth node snapshots
  std::vector<Sim::RewindMark> mark_pool_;    ///< per-depth rewind marks
  std::uint64_t nodes_ = 0;
  /// Depth of the current engine run's root node: the one node whose pend
  /// slot has no parent slot to derive from (capture_pendings).
  int root_depth_ = 0;
  std::uint64_t rewind_tick_ = 0;  ///< restore() sampling counter
  /// Sim::value_replayed_units() already counted (see flush_metrics); every
  /// engine run ends with a flush, so the next one starts in sync.
  std::uint64_t replay_cursor_ = 0;
  ExploreStats flushed_;  ///< metric-flush cursor (see flush_metrics)
  bool stop_ = false;
  bool sleep_sets_ = false;  ///< SourceDpor: sleep transfer + pend captures
  bool bounded_ = false;     ///< a preemption budget applies
  /// Source-DPOR workers only: the race detector over the current path.
  std::optional<SourceDpor> dpor_;
  /// Per-depth node branch masks: the full admissible set, or — in a
  /// source-DPOR worker — the seed branch plus the detector's insertions
  /// (prefix depths hold the foreign-node sentinel).
  std::vector<std::uint32_t> backtrack_;
};

}  // namespace

Explorer::Explorer(Config cfg) : cfg_(std::move(cfg)) {
  if (cfg_.nprocs < 1) {
    throw std::invalid_argument("Explorer: nprocs must be >= 1");
  }
  if (!cfg_.setup) {
    throw std::invalid_argument("Explorer: setup callback is required");
  }
  if (cfg_.strategy == SearchStrategy::Exhaustive) {
    // Exhaustive means every interleaving within the depth bound: a
    // preemption limit left over from a Bounded configuration must not
    // silently shrink the certified space.
    cfg_.limits.max_preemptions = -1;
  }
  if (cfg_.strategy == SearchStrategy::Bounded &&
      cfg_.limits.max_preemptions < 0) {
    // Without a preemption bound, "Bounded" would silently run the full
    // exhaustive DFS — exponentially more states than the caller asked for.
    throw std::invalid_argument(
        "Explorer: Bounded strategy requires limits.max_preemptions >= 0");
  }
  if (cfg_.limits.reduction != ReductionPolicy::Off &&
      cfg_.strategy != SearchStrategy::Exhaustive) {
    // Under a preemption budget a sleeping branch's covering reordering
    // may itself be out of budget, so the reduction would cut feasible
    // space; restrict it to the strategy it is defined for.
    throw std::invalid_argument(
        "Explorer: partial-order reduction requires the Exhaustive "
        "strategy");
  }
  if (cfg_.strategy != SearchStrategy::Random) {
    // The DFS keeps branch masks and cache visit masks (sleep sets, or the
    // unary-coded preemptions spent) in 32 bits.
    if (cfg_.nprocs > kMaxPorProcs) {
      throw std::invalid_argument(
          "Explorer: DFS strategies support at most 32 processes");
    }
    if (cfg_.limits.max_preemptions > 31) {
      throw std::invalid_argument(
          "Explorer: limits.max_preemptions must be <= 31");
    }
  }
  if (cfg_.limits.reduction == ReductionPolicy::SourceDpor &&
      cfg_.limits.max_depth > kMaxPorDepth) {
    // The race detector keeps sets of path positions in 64 bits.
    throw std::invalid_argument(
        "Explorer: source-dpor supports limits.max_depth <= 64");
  }
}

namespace {

/// Planner levels walked before the fan-out, at most: the top f levels
/// are walked sequentially and every node at depth f becomes a work item.
constexpr int kFrontierDepth = 4;

/// Hard cap on the planner fan-out: at most n^f work items.
constexpr std::size_t kFrontierCellCap = 4096;

/// Planner horizon f: the largest f <= min(kFrontierDepth, max_depth) with
/// n^f <= kFrontierCellCap. Depends only on (n, max_depth), so the work
/// items, and every count derived from them, are thread-count invariant.
int frontier_split_depth(int nprocs, int max_depth) {
  const int want_f = std::clamp(max_depth, 0, kFrontierDepth);
  // Division instead of multiplication: overflow-proof for any nprocs.
  const std::size_t max_cells =
      kFrontierCellCap / static_cast<std::size_t>(nprocs);
  std::size_t cells = 1;
  int f = 0;
  while (f < want_f && cells <= max_cells) {
    cells *= static_cast<std::size_t>(nprocs);
    ++f;
  }
  return f;
}

}  // namespace

Explorer::Result Explorer::run(ExperimentRunner* runner) const {
  const bool random = cfg_.strategy == SearchStrategy::Random;
  Plan plan;

  // Phase 1 — sequential planner: full-branching walk of the top levels,
  // emitting one self-contained work item per horizon node. Everything the
  // planner counts is thread-count invariant because only the calling
  // thread runs it. Random plans nothing: its items are the seeds.
  Result planner_slot;
  if (!random) {
    const obs::TraceSpan plan_span("explorer.plan");
    plan.horizon = frontier_split_depth(cfg_.nprocs, cfg_.limits.max_depth);
    CellExplorer planner(cfg_);
    planner.plan(plan, planner_slot);
  }
  const std::vector<WorkItem>& items = plan.items;
  const std::size_t count = random ? cfg_.seeds.size() : items.size();

  // Phase 2 — execution: each worker claims item indices from one shared
  // counter until it runs dry. A worker owns one private Sim +
  // CellExplorer reused across its items and accumulates each item into a
  // worker-LOCAL result, published to the item's shared slot once at item
  // end (per-node writes through the adjacent slots false-shared cache
  // lines and cost more than the parallelism bought back). The slot merge
  // runs in item index order, so no report depends on the scheduling.
  std::vector<Result> slots(count);
  if (count != 0) {
    ExperimentRunner& eng = runner_or_shared(runner);
    const std::size_t workers = std::min(
        count, static_cast<std::size_t>(std::max(1, eng.thread_count())));
    std::atomic<std::size_t> next{0};
    eng.parallel_for(workers, [&](std::size_t) {
      CellExplorer cell(cfg_);
      Result local;  // worker-local: one hot cache line per worker
      for (std::size_t idx = next.fetch_add(1, std::memory_order_relaxed);
           idx < count; idx = next.fetch_add(1, std::memory_order_relaxed)) {
        local.stats = ExploreStats{};
        local.best.clear();
        {
          const obs::TraceSpan item_span("explorer.item");
          if (random) {
            cell.run_seed(cfg_.seeds[idx], local);
          } else {
            cell.run_item(items[idx], plan.prefix(items[idx]), local);
          }
        }
        slots[idx].stats = local.stats;
        slots[idx].best.swap(local.best);
      }
    });
  }

  Result res;
  {
    const obs::TraceSpan merge_span("explorer.merge");
    res.stats.merge(planner_slot.stats);
    merge_best(res.best, planner_slot.best);
    for (const Result& slot : slots) {  // item index order: deterministic
      res.stats.merge(slot.stats);
      merge_best(res.best, slot.best);
    }
  }
  return res;
}

}  // namespace cfc
