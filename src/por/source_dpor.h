#ifndef CFC_POR_SOURCE_DPOR_H
#define CFC_POR_SOURCE_DPOR_H

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
/// three 64-bit masks of trace positions — `dep`, the earlier units
/// directly dependent with it; `hb`, the earlier units that happen before
/// it (happens-before is the trace-order closure of the dependence
/// relation); and `dep_seen`, the OR of `dep` over it and every earlier
/// unit (the units with a dependent successor so far). push_step() builds
/// the new unit's `dep` as one union of position sets kept per pid, per
/// register (accessed, written) and for section changes, then visits the
/// positions of `dep & ~hb` highest first, folding each one's `hb` in: a
/// visited unit of another process is a *race* (dependent and concurrent:
/// reachable by no chain of intermediate dependences). For every race it
/// derives the source-set insertion: with
///
///   v = notdep(d, E).q   (units after d not happening-after d, then the
///                         racing process q)
///
/// the candidate set is I(v), the initials of v (processes whose first
/// unit in v has no dependence predecessor inside v: `dep & v` is empty).
/// If the backtrack mask of the node that executed d already intersects
/// I(v), the race is covered; otherwise one member of I(v) is inserted (q
/// when q ∈ I(v), else the first initial in v-order — a fixed,
/// deterministic choice).
///
/// Cost. push_step is O(1) mask work plus one step per visited position
/// (at most one per process, since each visit folds in its predecessors),
/// plus an O(path) walk per race to build v; pop_to clears the popped
/// units' bits in O(1) each; note_cut's droppable test is one bit read.
/// The masks cap the path at kMaxPorDepth (64) units: push_step throws
/// std::logic_error past it, and the Explorer rejects a SourceDpor search
/// whose max_depth exceeds it.
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
  /// dependent successor on the path, which push_step records in a
  /// running mask so the test is one bit read (see the implementation for
  /// both coverage arguments). The reversals then run the cut-off units
  /// inside the bound, whose own races and cut points cascade the rest.
  /// Cost: one
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
  struct Event {
    StepSummary step;
    int node_depth = 0;
    std::uint64_t dep = 0;       ///< earlier positions dependent with it
    std::uint64_t hb = 0;        ///< earlier positions happening before it
    std::uint64_t dep_seen = 0;  ///< OR of dep over positions <= its own
  };

  /// The live positions that accessed, and that wrote, one register.
  struct RegPositions {
    std::uint64_t accessed = 0;
    std::uint64_t written = 0;
  };

  [[nodiscard]] RegPositions& reg_positions(RegId reg);

  /// Computes I(v) for the race and returns the pid to insert, or -1 when
  /// `backtrack_mask` (the mask of d's node) already intersects I(v).
  [[nodiscard]] Pid choose_initial(std::size_t d_index, Pid q,
                                   std::uint32_t backtrack_mask) const;

  std::vector<Event> trace_;
  std::vector<std::uint64_t> pid_positions_;  ///< per pid
  std::vector<RegPositions> reg_positions_;   ///< per register id
  std::uint64_t section_positions_ = 0;       ///< units that changed sections
  Stats stats_;
};

}  // namespace cfc

#endif  // CFC_POR_SOURCE_DPOR_H
