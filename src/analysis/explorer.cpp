#include "analysis/explorer.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <span>
#include <stdexcept>
#include <utility>

#include "analysis/slab_arena.h"
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
#define CFC_STATS_FIELD(field) ExploreStatsField{#field, &ExploreStats::field},
  static constexpr ExploreStatsField kFields[] = {
      CFC_EXPLORE_STATS_COUNTERS(CFC_STATS_FIELD)};
#undef CFC_STATS_FIELD
  return kFields;
}

void ExploreStats::merge(const ExploreStats& o) {
  for (const ExploreStatsField& f : explore_stats_fields()) {
    this->*f.member += o.*f.member;
  }
  truncated = truncated || o.truncated;
  state_budget_hit = state_budget_hit || o.state_budget_hit;
  frontier_clamped = frontier_clamped || o.frontier_clamped;
}

namespace {

/// Index-wise max_with reduction of objective report vectors (the single
/// definition behind leaf accumulation and the cell reductions).
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

/// Per-cell / per-work-item result slot; reduced in index order afterwards.
struct CellResult {
  ExploreStats stats;
  std::vector<ComplexityReport> best;

  void take_leaf(const std::vector<ComplexityReport>& leaf) {
    merge_best(best, leaf);
  }
};

/// One unit of the parallel source-DPOR execution: a realizable,
/// violation-free schedule prefix of planner picks (stored in the plan's
/// slab arena), the sleep mask at its horizon node, and the last pick.
/// Self-contained — any worker can claim it, reposition its private Sim,
/// and run the subtree; race detection below the horizon is per-path
/// (vector clocks live in the worker's own SourceDpor trace), so items
/// share no mutable state.
struct WorkItem {
  const Pid* prefix = nullptr;
  std::uint32_t len = 0;
  std::uint32_t sleep = 0;
  Pid last = -1;
};

/// One DFS engine: owns the live simulation, the live accumulator, the
/// per-cell visited table, the recycled scratch pools (branch stack,
/// per-depth accumulator snapshots and rewind marks), and — under
/// ReductionPolicy::SourceDpor — the per-path race detector and the
/// per-depth backtrack masks. Descends by stepping the live sim and
/// backtracks to per-depth RewindMarks (Sim::rewind_to_mark).
///
/// Three entry points: run() walks one grid cell (policy Off), plan() is
/// the parallel source-DPOR planner, run_item() executes one planner work
/// item. A worker reuses one CellExplorer — and its Sim — across every
/// item it claims.
class CellExplorer {
 public:
  explicit CellExplorer(const Explorer::Config& cfg)
      : cfg_(cfg),
        acc_(cfg.nprocs),
        use_scache_(cfg.limits.reduction == ReductionPolicy::SourceDpor &&
                    cfg.limits.prune_visited) {
    if (cfg.limits.reduction == ReductionPolicy::SourceDpor) {
      dpor_.emplace(cfg.nprocs);
      backtrack_.assign(
          static_cast<std::size_t>(cfg.limits.max_depth) + 1,
          SourceDpor::kForeignNode);
    }
  }

  /// Grid-cell DFS (policy Off; the source-DPOR policy goes through
  /// plan()/run_item() instead).
  void run(const std::vector<Pid>& prefix, CellResult& out) {
    out_ = &out;
    begin_metrics();
    run_cell(prefix);
    out.stats.visited_bytes += visited_.bytes();
    out.stats.visited_live_bytes += visited_.live_bytes();
    flush_metrics();
  }

  /// Parallel source-DPOR, phase 1: walks the top `horizon` levels of the
  /// tree with FULL branching over enabled-and-awake processes plus the
  /// measurement-aware sleep transfer, emitting one WorkItem per horizon
  /// node reached (prefix picks copied into `arena`). Runs on the calling
  /// thread only, so every counter it touches — including the planner
  /// levels' states/leaves/violations/sleep_blocked — is thread-count
  /// invariant by construction.
  ///
  /// Soundness of stopping worker race insertions at the horizon
  /// (SourceDpor::kForeignNode masks over prefix depths): full branching
  /// modulo sleep is a maximal persistent set at every planner node, and
  /// source sets only ever need a subset of a persistent set — any
  /// reordering of the prefix a subtree race could demand is already a
  /// planner branch, or asleep and therefore covered by a same-length
  /// explored reordering (the classic sleep-set argument).
  void plan(int horizon, SlabArena& arena, std::vector<WorkItem>& items,
            CellResult& out) {
    out_ = &out;
    begin_metrics();
    reset_sim();
    plan_dfs(0, /*last=*/-1, /*sleep=*/0, horizon, arena, items);
    // The planner's sleep cache lives for the whole walk (it is what makes
    // horizon-level re-convergence prune whole work items), so its
    // footprint is deterministic — account it here. Worker caches are
    // cleared per item and deliberately left out of the byte counters:
    // their reserved capacity depends on which items a worker happened to
    // claim, and every stat except steals/sims_built must stay
    // thread-count invariant.
    out.stats.visited_bytes += scache_.bytes();
    out.stats.visited_live_bytes += scache_.live_bytes();
    flush_metrics();
  }

  /// Parallel source-DPOR, phase 2: executes one work item. The first item
  /// builds the worker's private Sim; later items rewind it to the run
  /// start in place and re-step the prefix live (the planner proved it
  /// realizable and violation-free). Prefix units join the race detector's
  /// trace with foreign-node masks, exactly like the pre-parallel grid
  /// path. Repositioning is part of claiming the item, not a sibling
  /// backtrack, so it counts into neither restores nor
  /// value_replayed_steps.
  void run_item(const WorkItem& item, CellResult& out) {
    out_ = &out;
    begin_metrics();
    if (!sim_) {
      reset_sim();
    } else {
      sim_->rewind_to(0);
      acc_ = MeasureAccumulator(cfg_.nprocs);  // sink address is stable
    }
    dpor_->clear();
    // A fresh sleep cache per item (capacity kept). The scope carries two
    // guarantees. Cache hits depend only on the item's own subtree, never
    // on which items this worker ran before, so every counter derived from
    // the pruning is identical at every thread count. And the certified
    // values stay equal to the unreduced oracle's: the cut-point
    // insertions at cache hits do NOT make one cache over a whole search
    // sound (see ExploreLimits::prune_visited for the measured failure).
    scache_.clear();
    std::fill(backtrack_.begin(), backtrack_.end(),
              SourceDpor::kForeignNode);
    nodes_ = 0;
    stop_ = false;
    int depth = 0;
    for (std::uint32_t i = 0; i < item.len; ++i) {
      const Pid p = item.prefix[i];
      if (!sim_->runnable(p)) {
        throw std::logic_error(
            "Explorer: work-item prefix diverged from the planner's run");
      }
      sim_->step(p);
      dpor_->push_step(depth, sim_->last_step_summary(), backtrack_);
      ++depth;
    }
    dfs_source(depth, item.last, item.sleep);
    // Per-item flush of the race detector's counters (clear() resets
    // them): the deltas land in the item's own slot and merge in item
    // index order, keeping the totals thread-count invariant.
    out.stats.races_detected += dpor_->stats().races_detected;
    out.stats.backtrack_points += dpor_->stats().backtrack_points;
    flush_metrics();
  }

 private:
  void run_cell(const std::vector<Pid>& prefix) {
    reset_sim();
    int preempt = 0;
    Pid last = -1;
    for (std::size_t i = 0; i < prefix.size(); ++i) {
      const Pid p = prefix[i];
      if (!sim_->any_runnable()) {
        // Terminal before the frontier: exactly one cell — the one whose
        // remaining digits are all zero — owns this leaf.
        if (all_zero_from(prefix, i)) {
          ++nodes_;
          ++out_->stats.states_visited;
          leaf_completed();
        }
        return;
      }
      if (!allowed_pick_exists(preempt, last)) {
        // Runnable processes remain but every pick is over the preemption
        // budget (the last-running process finished): the bounded space
        // ends here, exactly as dfs() records it below the frontier.
        if (all_zero_from(prefix, i)) {
          ++nodes_;
          ++out_->stats.states_visited;
          leaf_truncated();
        }
        return;
      }
      if (!sim_->runnable(p)) {
        return;  // unrealizable branch; the runnable-digit cells cover it
      }
      const int switch_cost = (last != -1 && p != last) ? 1 : 0;
      if (cfg_.limits.max_preemptions >= 0 &&
          preempt + switch_cost > cfg_.limits.max_preemptions) {
        return;  // excluded by the bound; the allowed-digit cells cover it
      }
      preempt += switch_cost;
      try {
        sim_->step(p);
      } catch (const MutualExclusionViolation&) {
        if (all_zero_from(prefix, i + 1)) {
          ++out_->stats.violations;
        }
        return;
      }
      last = p;
    }
    dfs(static_cast<int>(prefix.size()), preempt, last);
  }

  [[nodiscard]] static bool all_zero_from(const std::vector<Pid>& prefix,
                                          std::size_t from) {
    return std::all_of(prefix.begin() + static_cast<std::ptrdiff_t>(from),
                       prefix.end(), [](Pid p) { return p == 0; });
  }

  /// True iff some runnable pick fits the remaining preemption budget.
  [[nodiscard]] bool allowed_pick_exists(int preempt, Pid last) const {
    for (Pid p = 0; p < cfg_.nprocs; ++p) {
      if (!sim_->runnable(p)) {
        continue;
      }
      const int switch_cost = (last != -1 && p != last) ? 1 : 0;
      if (cfg_.limits.max_preemptions < 0 ||
          preempt + switch_cost <= cfg_.limits.max_preemptions) {
        return true;
      }
    }
    return false;
  }

  void reset_sim() {
    sim_ = std::make_unique<Sim>();
    owner_ = cfg_.setup(*sim_);
    sim_->set_trace_recording(false);
    sim_->mark_rewind_base();
    ++out_->stats.sims_built;
    acc_ = MeasureAccumulator(cfg_.nprocs);
    sim_->add_sink(acc_);
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
  /// only processes that acted below the node are value-replayed,
  /// counted in value_replayed_steps — plus the node's accumulator
  /// snapshot.
  void restore(int depth) {
    // Rewinds are far too frequent to record individually; sample 1/256
    // so traces show representative restore costs without drowning.
    ++rewind_tick_;
    const obs::TraceSpan rewind_span(
        (rewind_tick_ & 0xffu) == 0u ? "explorer.rewind" : nullptr);
    ++out_->stats.restores;
    const auto d = static_cast<std::size_t>(depth);
    out_->stats.value_replayed_steps += sim_->rewind_to_mark(mark_pool_[d]);
    acc_ = acc_pool_[d];  // the sink stays attached; plain-data restore
  }

  [[nodiscard]] std::uint64_t state_key(Pid last) const {
    std::uint64_t h = state_fingerprint(*sim_);
    if (cfg_.objective.eval) {
      h = fingerprint_combine(h, cfg_.objective.digest
                                     ? cfg_.objective.digest(acc_)
                                     : acc_.digest());
    }
    if (cfg_.limits.max_preemptions >= 0) {
      // Under a preemption bound the last-scheduled pid is part of the
      // state: futures continuing it are free while switches cost budget,
      // so merging across different `last` would prune feasible subtrees.
      h = fingerprint_combine(h, static_cast<std::uint64_t>(last) + 1);
    }
    return h;
  }

  /// Key for the sleep-set-aware cache (stateful source-DPOR): state
  /// fingerprint x objective digest, WITHOUT the sleep mask — the mask is
  /// the cache's value dimension (SleepCache subsumption), not part of the
  /// key. No last-pid fold either: source-DPOR is Exhaustive-only, so
  /// there is no preemption budget to make `last` state.
  [[nodiscard]] std::uint64_t scache_key() const {
    std::uint64_t h = state_fingerprint(*sim_);
    if (cfg_.objective.eval) {
      h = fingerprint_combine(h, cfg_.objective.digest
                                     ? cfg_.objective.digest(acc_)
                                     : acc_.digest());
    }
    return h;
  }

  void eval_leaf(bool truncated) {
    if (!cfg_.objective.eval) {
      return;
    }
    if (truncated) {
      acc_.mark_truncated();  // cleared by the next backtrack restore
    }
    out_->take_leaf(cfg_.objective.eval(*sim_, acc_));
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
      acc_pool_.emplace_back(cfg_.nprocs);
    }
    if (mark_pool_.size() < need) {
      mark_pool_.resize(need);
    }
  }

  /// Captures every process's NextStep into the flat per-depth pend pool
  /// (hot-path round 4): slot [depth*nprocs, (depth+1)*nprocs) replaces a
  /// kMaxPorProcs array in every recursion frame. Descendants only write
  /// deeper slots, so a frame's capture survives its recursive calls;
  /// frames re-derive the pointer via pend_at() after recursing, so pool
  /// growth never dangles a span.
  void capture_pendings(int depth) {
    const auto np = static_cast<std::size_t>(cfg_.nprocs);
    const std::size_t base = static_cast<std::size_t>(depth) * np;
    if (pend_pool_.size() < base + np) {
      pend_pool_.resize(base + np);
    }
    NextStep* out = pend_pool_.data() + base;
    for (Pid p = 0; p < cfg_.nprocs; ++p) {
      out[static_cast<std::size_t>(p)] = next_step_of(*sim_, p);
    }
  }

  [[nodiscard]] std::span<const NextStep> pend_at(int depth) const {
    const auto np = static_cast<std::size_t>(cfg_.nprocs);
    return {pend_pool_.data() + static_cast<std::size_t>(depth) * np, np};
  }

  /// SourceDpor: placement-bucket and droppable-unit insertions for a
  /// depth-horizon cut (SourceDpor::note_cut). Uses the cut node's own
  /// pool slot — nothing else captured at this depth (the node returns
  /// without branching).
  void cut_point_insertions(int depth, std::uint32_t sleep) {
    capture_pendings(depth);
    std::uint32_t enabled = 0;
    for (Pid q = 0; q < cfg_.nprocs; ++q) {
      if (sim_->runnable(q) && ((sleep >> q) & 1u) == 0) {
        enabled |= 1u << static_cast<unsigned>(q);
      }
    }
    dpor_->note_cut(enabled, pend_at(depth), backtrack_);
  }

  /// Node-entry outcome of classify_node: the leaf accounting shared by
  /// every policy's DFS, with the depth-horizon cut distinguished so the
  /// source-DPOR path can attach its cut-point insertions to it.
  enum class NodeEntry : std::uint8_t {
    Interior,  ///< explore branches
    Leaf,      ///< completed run, or cut by the state budget
    DepthCut,  ///< truncated by the depth horizon
  };

  /// Leaf and budget checks shared by every policy's node entry (the
  /// single definition of the nodes_/states_visited/leaf accounting the
  /// reduced-vs-unreduced stat comparisons rely on). The nodes_ budget
  /// (ExploreLimits::max_states) is per engine run: per grid cell, per
  /// planner walk, per work item.
  [[nodiscard]] NodeEntry classify_node(int depth) {
    ++nodes_;
    ++out_->stats.states_visited;
    if ((nodes_ & 0x1fffu) == 0u) {
      flush_metrics();  // periodic export; one relaxed load when disabled
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

  /// The unreduced DFS (policy Off): the reference oracle, and the walk
  /// of the preemption-bounded strategy.
  void dfs(int depth, int preempt, Pid last) {
    if (classify_node(depth) != NodeEntry::Interior) {
      return;
    }
    const int eff_preempt = cfg_.limits.max_preemptions < 0 ? 0 : preempt;
    if (cfg_.limits.prune_visited &&
        visited_.check_and_insert(state_key(last), depth, eff_preempt)) {
      ++out_->stats.pruned_visited;
      return;
    }

    // Collect branches into the shared scratch stack (zero per-node
    // allocation), continue-last-pid-first: the first branch descends the
    // live sim with no restore at all, so leading with the running process
    // makes that free descent the preemption-free spine.
    const std::size_t base = branch_buf_.size();
    const auto admit = [&](Pid p) {
      if (!sim_->runnable(p)) {
        return;
      }
      const int switch_cost = (last != -1 && p != last) ? 1 : 0;
      if (cfg_.limits.max_preemptions >= 0 &&
          preempt + switch_cost > cfg_.limits.max_preemptions) {
        return;
      }
      branch_buf_.push_back(p);
    };
    if (last != -1) {
      admit(last);
    }
    for (Pid p = 0; p < cfg_.nprocs; ++p) {
      if (p != last) {
        admit(p);
      }
    }

    const std::size_t nb = branch_buf_.size() - base;
    if (nb == 0) {
      // Runnable processes exist but every switch is over the preemption
      // budget: the bounded space ends here.
      leaf_truncated();
      return;
    }

    // Node checkpoint for sibling restores (skipped for single branches:
    // the parent restores for us).
    if (nb > 1) {
      capture_node(depth);
    }

    for (std::size_t b = 0; b < nb; ++b) {
      if (stop_) {
        break;
      }
      const Pid p = branch_buf_[base + b];
      if (b > 0) {
        restore(depth);
      }
      try {
        sim_->step(p);
      } catch (const MutualExclusionViolation&) {
        ++out_->stats.violations;
        continue;  // sim is poisoned; the next iteration restores it
      }
      const int switch_cost = (last != -1 && p != last) ? 1 : 0;
      dfs(depth + 1, preempt + switch_cost, p);
    }
    branch_buf_.resize(base);
  }

  /// The source-DPOR DFS (policy SourceDpor; Exhaustive only, so there is
  /// no preemption accounting). Instead of branching on every enabled
  /// process, the node starts from ONE seed branch and grows its backtrack
  /// mask on demand: the race detector (por/source_dpor.h) watches every
  /// executed unit and inserts, per race against the current path, a
  /// source-set process at the ancestor node that ran the raced-with unit.
  /// Sleep sets (full, measurement-aware transfer) prune the redundant
  /// reorderings exactly as in the classic combination: explored branches
  /// join the node's sleep mask, and the child keeps asleep every sleeper
  /// whose captured next step is independent of the unit just taken.
  void dfs_source(int depth, Pid last, std::uint32_t sleep) {
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
        cut_point_insertions(depth, sleep);
        return;
      case NodeEntry::Interior:
        break;
    }
    // Stateful DPOR: skip the subtree when a stored visit of this state
    // subsumes it — equal fingerprint implies equal per-process histories
    // (so equal remaining depth and equal accumulator), and a stored sleep
    // set S that is a subset of the current one means the stored subtree
    // covered every behavior this visit could, so its leaves already
    // contributed the same objective values. The one thing the skipped
    // subtree still owes the *current* path is its race-driven backtrack
    // insertions (they are path-dependent); the bounded-horizon cut-point
    // insertions re-place them conservatively, exactly as at a DepthCut —
    // enough within one work item's cache, not across a whole search (see
    // run_item).
    if (use_scache_ && scache_.check_and_insert(scache_key(), sleep)) {
      ++out_->stats.pruned_visited;
      cut_point_insertions(depth, sleep);
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
    const std::uint32_t avail = enabled & ~sleep;
    if (avail == 0) {
      // Every enabled branch is asleep: each is a reordering of an
      // explored schedule — not a leaf of the reduced tree.
      return;
    }

    // Seed the backtrack set with one branch, continue-last-pid-first so
    // the restore-free first descent stays on the preemption-free spine;
    // race insertions from the subtree grow the mask while this node's
    // loop is suspended in recursion.
    const Pid seed = (last != -1 && ((avail >> last) & 1u) != 0)
                         ? last
                         : static_cast<Pid>(std::countr_zero(avail));
    backtrack_[static_cast<std::size_t>(depth)] =
        1u << static_cast<unsigned>(seed);

    // Node checkpoint: unlike the full-branching DFS, the branch count is
    // not known up front (insertions arrive later), so capture always.
    capture_node(depth);
    capture_pendings(depth);

    bool first = true;
    while (!stop_) {
      const std::uint32_t todo =
          backtrack_[static_cast<std::size_t>(depth)] & enabled & ~sleep;
      if (todo == 0) {
        break;
      }
      const Pid p = (last != -1 && ((todo >> last) & 1u) != 0)
                        ? last
                        : static_cast<Pid>(std::countr_zero(todo));
      if (!first) {
        restore(depth);
      }
      first = false;
      const std::size_t trace_len = dpor_->size();
      bool violated = false;
      try {
        sim_->step(p);
      } catch (const MutualExclusionViolation&) {
        ++out_->stats.violations;
        violated = true;  // sim is poisoned; the next iteration restores it
      }
      // Race-detect even the violating unit (its partial summary covers
      // everything that took effect): the reorderings its races demand
      // may be perfectly safe schedules.
      dpor_->push_step(depth, sim_->last_step_summary(), backtrack_);
      if (!violated) {
        const std::uint32_t candidates =
            sleep & ~(1u << static_cast<unsigned>(p));
        const std::uint32_t child_sleep =
            transfer_sleep(SleepSet(candidates), sim_->last_step_summary(),
                           pend_at(depth))
                .mask();
        dfs_source(depth + 1, p, child_sleep);
      }
      dpor_->pop_to(trace_len);
      // The explored (or excluded-violating) branch goes to sleep for its
      // later siblings: schedules starting with it here are covered.
      sleep |= 1u << static_cast<unsigned>(p);
    }
  }

  /// The planner walk behind plan(): full branching over enabled-and-awake
  /// processes with the measurement-aware sleep transfer — the same
  /// reduction dfs_source applies, minus the race-driven narrowing (the
  /// planner cannot see the workers' races, so it must branch over the
  /// whole persistent set). Leaves/violations inside the planner levels
  /// are recorded here, once, ever — no work item re-visits them.
  void plan_dfs(int depth, Pid last, std::uint32_t sleep, int horizon,
                SlabArena& arena, std::vector<WorkItem>& items) {
    if (depth == horizon) {
      // Stateful pruning across work items: when an equal horizon state
      // was already emitted under a subset sleep mask, that item's subtree
      // covers this one — skip emitting it entirely. No insertions are
      // owed: every planner node full-branches over enabled-and-awake
      // processes (a maximal persistent set), so any prefix reordering a
      // skipped subtree's race could demand is already a planner branch,
      // and the planner's own backtrack masks are never consulted.
      if (use_scache_ && scache_.check_and_insert(scache_key(), sleep)) {
        ++out_->stats.pruned_visited;
        return;
      }
      // The horizon node itself belongs to the work item (the worker's
      // dfs_source classifies it), keeping node accounting disjoint.
      Pid* stored = arena.alloc<Pid>(path_.size());
      std::copy(path_.begin(), path_.end(), stored);
      items.push_back(WorkItem{stored,
                               static_cast<std::uint32_t>(path_.size()),
                               sleep, last});
      ++out_->stats.work_items;
      return;
    }
    switch (classify_node(depth)) {
      case NodeEntry::Leaf:
        return;
      case NodeEntry::DepthCut:
        // Unreachable (horizon <= max_depth), but keep the cut sound.
        cut_point_insertions(depth, sleep);
        return;
      case NodeEntry::Interior:
        break;
    }
    // Stateful pruning of planner-level re-convergence: same subsumption
    // rule as dfs_source, same no-insertions-owed argument as the horizon
    // check above (planner nodes full-branch over a maximal persistent
    // set). A hit prunes every work item the subtree would have emitted.
    if (use_scache_ && scache_.check_and_insert(scache_key(), sleep)) {
      ++out_->stats.pruned_visited;
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
    const std::uint32_t avail = enabled & ~sleep;
    if (avail == 0) {
      return;  // every enabled branch asleep: covered by reorderings
    }

    // Full branching, continue-last-pid-first then ascending pid — the
    // same deterministic order the other walks use.
    const std::size_t base = branch_buf_.size();
    if (last != -1 && ((avail >> last) & 1u) != 0) {
      branch_buf_.push_back(last);
    }
    for (Pid p = 0; p < cfg_.nprocs; ++p) {
      if (p != last && ((avail >> p) & 1u) != 0) {
        branch_buf_.push_back(p);
      }
    }
    const std::size_t nb = branch_buf_.size() - base;

    if (nb > 1) {
      capture_node(depth);
    }
    capture_pendings(depth);

    for (std::size_t b = 0; b < nb; ++b) {
      if (stop_) {
        break;
      }
      const Pid p = branch_buf_[base + b];
      if (b > 0) {
        restore(depth);
      }
      bool violated = false;
      try {
        sim_->step(p);
      } catch (const MutualExclusionViolation&) {
        ++out_->stats.violations;
        violated = true;  // sim is poisoned; the next iteration restores it
      }
      if (!violated) {
        const std::uint32_t candidates =
            sleep & ~(1u << static_cast<unsigned>(p));
        const std::uint32_t child_sleep =
            transfer_sleep(SleepSet(candidates), sim_->last_step_summary(),
                           pend_at(depth))
                .mask();
        path_.push_back(p);
        plan_dfs(depth + 1, p, child_sleep, horizon, arena, items);
        path_.pop_back();
      }
      // Explored (or excluded-violating) branches sleep for later
      // siblings, exactly as in dfs_source.
      sleep |= 1u << static_cast<unsigned>(p);
    }
    branch_buf_.resize(base);
  }

  /// Starts a fresh metric epoch for the engine run about to begin (the
  /// flush cursor tracks out_->stats, which each run/plan/run_item starts
  /// from zero).
  void begin_metrics() { flushed_ = ExploreStats{}; }

  /// Exports the counter growth since the last flush into the global
  /// registry. Deltas rather than totals so per-worker shard sums equal
  /// the true totals regardless of which worker ran what; a no-op (one
  /// relaxed load) while the registry is disabled. Reads out_->stats only
  /// — the registry never feeds back into the search, so enabling it
  /// cannot change any result.
  void flush_metrics() {
    obs::MetricRegistry& m = obs::MetricRegistry::global();
    if (!m.enabled()) {
      return;
    }
    const ExploreStats& s = out_->stats;
    const auto bump = [&](obs::Metric id, std::uint64_t ExploreStats::*f) {
      m.add(id, s.*f - flushed_.*f);
      flushed_.*f = s.*f;
    };
    bump(obs::Metric::states_visited, &ExploreStats::states_visited);
    bump(obs::Metric::cache_hits, &ExploreStats::pruned_visited);
    bump(obs::Metric::sleep_blocked, &ExploreStats::sleep_blocked);
    bump(obs::Metric::restores, &ExploreStats::restores);
    bump(obs::Metric::races_detected, &ExploreStats::races_detected);
    bump(obs::Metric::backtrack_points, &ExploreStats::backtrack_points);
    bump(obs::Metric::restore_marks, &ExploreStats::restore_marks);
    m.set_max(obs::Metric::visited_live_bytes,
              use_scache_ ? scache_.live_bytes() : visited_.live_bytes());
  }

  const Explorer::Config& cfg_;
  CellResult* out_ = nullptr;
  std::unique_ptr<Sim> sim_;
  std::shared_ptr<void> owner_;
  MeasureAccumulator acc_;
  VisitedTable visited_;
  /// Stateful source-DPOR only (use_scache_): the sleep-set-aware cache.
  /// Planner: one cache across the whole walk. Worker: cleared per item.
  SleepCache scache_;
  std::vector<Pid> branch_buf_;  ///< shared branch scratch stack
  std::vector<Pid> path_;        ///< planner: picks along the current path
  /// Flat per-depth pending captures (capture_pendings / pend_at): one
  /// contiguous slab instead of a kMaxPorProcs array per recursion frame.
  std::vector<NextStep> pend_pool_;
  std::vector<MeasureAccumulator> acc_pool_;  ///< per-depth node snapshots
  std::vector<Sim::RewindMark> mark_pool_;    ///< per-depth rewind marks
  std::uint64_t nodes_ = 0;
  std::uint64_t rewind_tick_ = 0;  ///< restore() sampling counter
  ExploreStats flushed_;  ///< metric-flush cursor (see flush_metrics)
  bool stop_ = false;
  bool use_scache_ = false;
  /// SourceDpor only: the race detector over the current path and the
  /// per-depth node backtrack masks it inserts into (prefix depths hold
  /// the foreign-node sentinel).
  std::optional<SourceDpor> dpor_;
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
  if (cfg_.limits.reduction != ReductionPolicy::Off) {
    if (cfg_.strategy != SearchStrategy::Exhaustive) {
      // Under a preemption budget a sleeping branch's covering reordering
      // may itself be out of budget, so the reduction would cut feasible
      // space; restrict it to the strategy it is defined for.
      throw std::invalid_argument(
          "Explorer: partial-order reduction requires the Exhaustive "
          "strategy");
    }
    if (cfg_.nprocs > kMaxPorProcs) {
      throw std::invalid_argument(
          "Explorer: partial-order reduction supports at most 32 processes");
    }
  }
}

namespace {

/// Hard cap on the cell grid / planner fan-out; n^f is clamped under it.
constexpr std::size_t kFrontierCellCap = 4096;

/// Frontier split depth f: prefixes of f picks form the cell grid of
/// n^f cells (policy Off) or the planner horizon (source-DPOR), capped
/// so wide process counts cannot explode — or overflow — the cell count.
/// Depends only on (n, frontier_depth): thread-count invariant. A clamp
/// below the requested depth logs a one-shot warning AND reports through
/// `clamped` so ExploreStats::frontier_clamped (and the study JSON) make
/// the coarser fan-out machine-readable.
int frontier_split_depth(int nprocs, const ExploreLimits& limits,
                         bool* clamped = nullptr) {
  const int want_f = std::clamp(limits.frontier_depth, 0, limits.max_depth);
  // Division instead of multiplication: overflow-proof for any nprocs.
  const std::size_t max_cells =
      kFrontierCellCap / static_cast<std::size_t>(nprocs);
  std::size_t cells = 1;
  int f = 0;
  while (f < want_f && cells <= max_cells) {
    cells *= static_cast<std::size_t>(nprocs);
    ++f;
  }
  if (f < want_f) {
    if (clamped != nullptr) {
      *clamped = true;
    }
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "cfc: Explorer frontier depth clamped from %d to %d "
                   "(%d^%d cells would exceed the %zu-cell cap)\n",
                   want_f, f, nprocs, want_f, kFrontierCellCap);
    }
  }
  return f;
}

std::size_t cells_for_depth(int nprocs, int f) {
  std::size_t cells = 1;
  for (int i = 0; i < f; ++i) {
    cells *= static_cast<std::size_t>(nprocs);
  }
  return cells;
}

}  // namespace

std::size_t Explorer::frontier_cells(int nprocs,
                                     const ExploreLimits& limits) {
  return cells_for_depth(nprocs, frontier_split_depth(nprocs, limits));
}

Explorer::Result Explorer::run(ExperimentRunner* runner) const {
  if (cfg_.strategy == SearchStrategy::Random) {
    return run_random_strategy(runner);
  }
  if (cfg_.limits.reduction == ReductionPolicy::SourceDpor) {
    return run_source_dpor(runner);
  }

  const int n = cfg_.nprocs;
  bool clamped = false;
  const int f = frontier_split_depth(n, cfg_.limits, &clamped);
  const std::size_t cells = cells_for_depth(n, f);

  std::vector<CellResult> slots(cells);
  runner_or_shared(runner).parallel_for(cells, [&](std::size_t c) {
    std::vector<Pid> prefix(static_cast<std::size_t>(f));
    std::size_t x = c;
    for (int i = f - 1; i >= 0; --i) {
      prefix[static_cast<std::size_t>(i)] = static_cast<Pid>(
          x % static_cast<std::size_t>(n));
      x /= static_cast<std::size_t>(n);
    }
    const obs::TraceSpan cell_span("explorer.cell");
    CellExplorer cell(cfg_);
    cell.run(prefix, slots[c]);
  });

  Result res;
  res.stats.frontier_clamped = clamped;
  for (const CellResult& slot : slots) {  // index order: deterministic
    res.stats.merge(slot.stats);
    merge_best(res.best, slot.best);
  }
  return res;
}

Explorer::Result Explorer::run_source_dpor(ExperimentRunner* runner) const {
  bool clamped = false;
  const int f = frontier_split_depth(cfg_.nprocs, cfg_.limits, &clamped);

  // Phase 1 — sequential planner: full-branching walk (mod sleep) of the
  // top f levels, emitting one self-contained work item per horizon node.
  // Everything the planner counts is thread-count invariant because only
  // the calling thread runs it.
  SlabArena arena;
  std::vector<WorkItem> items;
  CellResult planner_slot;
  {
    const obs::TraceSpan plan_span("explorer.plan");
    CellExplorer planner(cfg_);
    planner.plan(f, arena, items, planner_slot);
  }
  {
    obs::MetricRegistry& m = obs::MetricRegistry::global();
    if (m.enabled()) {
      m.add(obs::Metric::work_items, items.size());
      m.set_max(obs::Metric::slab_bytes, arena.bytes_reserved());
    }
  }

  // Phase 2 — work-stealing execution: items are dealt in contiguous
  // blocks into per-worker queues; a worker drains its own queue first
  // (fetch_add claims), then sweeps the other queues for leftovers. Each
  // worker owns one private Sim + CellExplorer reused across its items and
  // accumulates each item into a worker-LOCAL result, published to the
  // item's shared slot once at item end: the per-node stat increments were
  // previously direct writes through the slots array, whose adjacent
  // ~200-byte entries share cache lines — under the old round-robin deal
  // every neighbour belonged to a different worker, and the resulting
  // false sharing on the hottest counters (states_visited bumps on every
  // DFS node) cost more than the parallelism bought back (the measured
  // threads=4 < threads=1 regression on the scaling bench). The slot
  // merge below runs in item index order — the totals cannot depend on
  // which worker ran what, only `steals` (and sims_built) reflect the
  // scheduling.
  std::vector<CellResult> slots(items.size());
  std::atomic<std::uint64_t> steals{0};
  if (!items.empty()) {
    ExperimentRunner& eng = runner_or_shared(runner);
    const int workers = static_cast<int>(std::min(
        items.size(),
        static_cast<std::size_t>(std::max(1, eng.thread_count()))));
    struct Queue {
      std::vector<std::size_t> items;
      std::atomic<std::size_t> next{0};
    };
    std::vector<Queue> queues(static_cast<std::size_t>(workers));
    {
      const std::size_t nw = static_cast<std::size_t>(workers);
      const std::size_t per = items.size() / nw;
      const std::size_t rem = items.size() % nw;
      std::size_t next_item = 0;
      for (std::size_t w = 0; w < nw; ++w) {
        const std::size_t take = per + (w < rem ? 1 : 0);
        for (std::size_t k = 0; k < take; ++k) {
          queues[w].items.push_back(next_item++);
        }
      }
    }
    eng.parallel_for(static_cast<std::size_t>(workers), [&](std::size_t w) {
      CellExplorer cell(cfg_);
      CellResult local;  // worker-local: one hot cache line per worker
      std::uint64_t local_steals = 0;
      for (;;) {
        std::size_t idx = items.size();
        Queue& own = queues[w];
        const std::size_t pos =
            own.next.fetch_add(1, std::memory_order_relaxed);
        if (pos < own.items.size()) {
          idx = own.items[pos];
        } else {
          for (std::size_t off = 1;
               off < queues.size() && idx == items.size(); ++off) {
            Queue& victim = queues[(w + off) % queues.size()];
            const std::size_t vpos =
                victim.next.fetch_add(1, std::memory_order_relaxed);
            if (vpos < victim.items.size()) {
              idx = victim.items[vpos];
              ++local_steals;
            }
          }
        }
        if (idx == items.size()) {
          break;  // every queue drained
        }
        local.stats = ExploreStats{};
        local.best.clear();
        {
          const obs::TraceSpan item_span("explorer.item");
          cell.run_item(items[idx], local);
        }
        slots[idx].stats = local.stats;
        slots[idx].best.swap(local.best);
      }
      steals.fetch_add(local_steals, std::memory_order_relaxed);
    });
  }

  Result res;
  res.stats.frontier_clamped = clamped;
  {
    const obs::TraceSpan merge_span("explorer.merge");
    res.stats.merge(planner_slot.stats);
    merge_best(res.best, planner_slot.best);
    for (const CellResult& slot : slots) {  // item index order: deterministic
      res.stats.merge(slot.stats);
      merge_best(res.best, slot.best);
    }
  }
  res.stats.steals += steals.load(std::memory_order_relaxed);
  {
    obs::MetricRegistry& m = obs::MetricRegistry::global();
    if (m.enabled()) {
      m.add(obs::Metric::steals, res.stats.steals);
    }
  }
  return res;
}

Explorer::Result Explorer::run_random_strategy(
    ExperimentRunner* runner) const {
  std::vector<CellResult> slots(cfg_.seeds.size());
  runner_or_shared(runner).parallel_for(
      cfg_.seeds.size(), [&](std::size_t i) {
        Sim sim;
        const std::shared_ptr<void> owner = cfg_.setup(sim);
        sim.set_trace_recording(false);
        MeasureAccumulator acc(cfg_.nprocs);
        sim.add_sink(acc);
        RandomScheduler rnd(cfg_.seeds[i]);
        const RunOutcome out =
            drive(sim, rnd, RunLimits{cfg_.random_budget});
        CellResult& slot = slots[i];
        slot.stats.sims_built += 1;
        slot.stats.states_visited += sim.schedule_log().size();
        if (out == RunOutcome::BudgetExhausted) {
          acc.mark_truncated();
          slot.stats.runs_truncated += 1;
          slot.stats.truncated = true;
        } else {
          slot.stats.runs_completed += 1;
        }
        if (cfg_.objective.eval) {
          slot.take_leaf(cfg_.objective.eval(sim, acc));
        }
      });

  Result res;
  for (const CellResult& slot : slots) {
    res.stats.merge(slot.stats);
    merge_best(res.best, slot.best);
  }
  return res;
}

}  // namespace cfc
