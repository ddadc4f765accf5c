#ifndef CFC_POR_SOURCE_DPOR_H
#define CFC_POR_SOURCE_DPOR_H

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "por/dependence.h"
#include "por/sleep_sets.h"

namespace cfc {

/// The source-DPOR engine behind ReductionPolicy::SourceDpor (Abdulla,
/// Aronis, Jonsson, Sagonas, POPL'14 — source sets without wakeup trees):
/// it watches the explorer's *current* execution path, detects races
/// between the newest unit and earlier units under the measurement-aware
/// dependence relation (por/dependence.h), and inserts, per race, a
/// backtrack point at the ancestor node that executed the raced-with unit,
/// so the reversal of the race is eventually explored.
///
/// Mechanics. The engine keeps one entry per executed unit of the current
/// path: its StepSummary, the depth of the DFS node it was taken from, and
/// its happens-before vector clock (clock[p] = how many of p's units
/// happen-before-or-equal this one; happens-before is the trace-order
/// closure of the dependence relation). push_step() computes the new
/// unit's clock with one backward walk — a prior unit d that is dependent
/// but not yet in the clock is a *race* (dependent and concurrent:
/// reachable by no chain of intermediate dependences). For every race it
/// derives the source-set insertion: with
///
///   v = notdep(d, E).q   (units after d not happening-after d, then the
///                         racing process q)
///
/// the candidate set is I(v), the initials of v (processes whose first
/// unit in v has no dependence predecessor inside v). If the backtrack
/// mask of the node that executed d already intersects I(v), the race is
/// covered; otherwise one member of I(v) is inserted (q when q ∈ I(v),
/// else the first initial in v-order — a fixed, deterministic choice).
///
/// Everything is per-path and single-threaded; pop_to() rewinds the trace
/// on DFS backtrack. Storage is recycled across pushes (steady-state
/// allocation-free at bounded depth).
class SourceDpor {
 public:
  /// Sentinel backtrack mask for node depths the caller does not own
  /// (the explorer's work-item prefix: the planner branched on every
  /// alternative ordering there). A full mask always intersects I(v), so no
  /// insertion is ever attempted against it.
  static constexpr std::uint32_t kForeignNode = 0xffffffffu;

  struct Stats {
    std::uint64_t races_detected = 0;
    std::uint64_t backtrack_points = 0;  ///< insertions applied
  };

  explicit SourceDpor(int nprocs);

  /// Appends the unit just executed from the node at `node_depth`, detects
  /// its races against the current path, and inserts the resulting
  /// backtrack points directly into `backtrack_by_depth` (node backtrack
  /// masks indexed by absolute node depth; mark foreign nodes with
  /// kForeignNode). Insertions are resolved one race at a time, each
  /// seeing the previous insertions.
  void push_step(int node_depth, const StepSummary& step,
                 std::span<std::uint32_t> backtrack_by_depth);

  /// Conservative cut-point insertions for bounded search. Classic
  /// source-DPOR assumes executions run to completion: every alternative
  /// branch is seeded by a race some *executed* unit exposes. Under a
  /// depth bound a cut path never executes the units beyond the horizon —
  /// on a spin path, a competing process may never run at all — so its
  /// races never materialize and whole reorderings would silently vanish
  /// from the "certified" space. At every depth-truncated leaf the
  /// explorer calls this with the mask of enabled, non-sleeping processes
  /// and every process's captured NextStep; the engine inserts backtrack
  /// points for (1) each enabled process's pending-placement buckets along
  /// the path and (2) each *droppable* path unit's node — one with no
  /// dependent successor on the path, which push_step records per unit so
  /// the test is a field read (see the implementation for both coverage
  /// arguments). The reversals then run the cut-off units inside the
  /// bound, whose own races and cut points cascade the rest. Cost: one
  /// backward walk over the path; per unit, a few mask operations, plus a
  /// register test for each owed process not already in the unit's node
  /// mask (at worst O(enabled processes x path length), typically far
  /// less once the DFS has filled the masks).
  void note_cut(std::uint32_t enabled_mask, std::span<const NextStep> pends,
                std::span<std::uint32_t> backtrack_by_depth);

  /// Drops every unit recorded beyond trace length `len` (DFS backtrack).
  void pop_to(std::size_t len);

  /// Full reset for a fresh work item.
  void clear();

  [[nodiscard]] std::size_t size() const { return trace_.size(); }
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  using Clock = std::array<std::uint16_t, kMaxPorProcs>;

  /// Event::first_dep of a unit with no dependent successor on the path.
  static constexpr std::uint32_t kNoDependent = 0xffffffffu;

  struct Event {
    StepSummary step;
    int node_depth = 0;
    std::uint16_t self_index = 0;  ///< index among its process's units
    /// Trace index of the first later unit dependent with this one, or
    /// kNoDependent: set by push_step's backward walk, cleared by pop_to
    /// when that unit is popped. kNoDependent marks the unit droppable
    /// (note_cut) with one read.
    std::uint32_t first_dep = kNoDependent;
    Clock clock{};  ///< happens-before closure (see above)
  };

  /// True iff trace_[i] happens-before-or-equal the event whose clock is
  /// `c`.
  [[nodiscard]] bool in_clock(const Clock& c, std::size_t i) const {
    const Event& ev = trace_[i];
    return c[static_cast<std::size_t>(ev.step.pid)] >
           ev.self_index;
  }

  /// Folds event d (and d itself) into a happens-before clock.
  void merge_clock(Clock& into, const Event& d) const;

  /// Resolves one race of process q's unit (trace_.back()) against
  /// trace_[d_index], inserting the chosen source-set process at d's node.
  void apply_race(std::size_t d_index, Pid q,
                  std::span<std::uint32_t> backtrack_by_depth);

  /// Computes I(v) for the race and returns the pid to insert, or -1 when
  /// `backtrack_mask` (the mask of d's node) already intersects I(v).
  [[nodiscard]] Pid choose_initial(std::size_t d_index, Pid q,
                                   std::uint32_t backtrack_mask);

  int nprocs_;
  std::vector<Event> trace_;
  std::vector<std::uint16_t> per_pid_count_;
  Stats stats_;
  std::vector<std::size_t> races_scratch_;  ///< d-indices of one push
  std::vector<std::size_t> v_scratch_;      ///< v-sequence trace indices
};

}  // namespace cfc

#endif  // CFC_POR_SOURCE_DPOR_H
