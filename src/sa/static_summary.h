#ifndef CFC_SA_STATIC_SUMMARY_H
#define CFC_SA_STATIC_SUMMARY_H

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "memory/types.h"
#include "sched/run.h"

namespace cfc {

class Sim;

/// --- Static model analysis (the sa/ footprint pass). ---
///
/// The paper's contention-free structure makes the configured models highly
/// analyzable without a schedule-space search: each process's solo
/// execution enumerates its contention-free program points exactly, and a
/// small battery of prefix-perturbed two-process runs surfaces the
/// contended branches (spin loops, fast-path fallbacks) those solo runs
/// never reach. The pass dry-runs one configuration (its setup function,
/// crash injection included) under an instrumented recording sink and
/// distills the observed scheduler units into:
///
///  * per-register facts (RegisterFacts): which pids were seen reading /
///    writing, the union of written-bit masks per pid, and the observed
///    sub-word field windows;
///
///  * per-process solo outcomes (SoloOutcome): protocol bookkeeping.
///
/// The registry linter (sa/lint.h) reports on both. The over-approximation
/// suite in tests/sa_test.cpp pins the may-conflict relation below to every
/// dynamically observed register conflict.

/// Facts about one register, merged over every collected unit.
struct RegisterFacts {
  bool observed = false;          ///< some collected unit accessed it
  std::uint32_t reader_pids = 0;  ///< pids observed reading (bitmask)
  std::uint32_t writer_pids = 0;  ///< pids observed writing (bitmask)
  /// Per-pid union of written-bit masks (Access::written_mask); sized
  /// nprocs. Sub-word stores contribute their field window only.
  std::vector<Value> written_fields_by_pid;
  /// Some write on this register was a sub-word (write_field) store.
  bool field_written = false;
  /// Observed write_field windows as (shift, width) pairs, deduplicated.
  std::vector<std::pair<int, int>> field_windows;
};

/// Protocol bookkeeping of one process's solo dry-run, for the linter.
struct SoloOutcome {
  bool completed = false;       ///< body finished within the unit budget
  bool entered_entry = false;   ///< was ever observed in Section::Entry
  bool entered_exit = false;    ///< was ever observed in Section::Exit
  Section final_section = Section::Remainder;
  std::uint64_t units = 0;      ///< scheduler units the solo run took
  int max_width_accessed = 0;   ///< widest register touched (atomicity)
};

/// The static footprint of one configuration. Built deterministically —
/// same setup, same table.
class StaticModel {
 public:
  using SetupFn = std::function<std::shared_ptr<void>(Sim&)>;

  /// Runs the footprint pass over `setup` for `nprocs` processes: one
  /// bounded solo run per pid, plus, for every ordered pid pair (p, q),
  /// one bounded run of p against each frozen prefix of q's solo
  /// schedule. Mutual-exclusion violations during perturbed runs stop
  /// that run but keep the facts collected so far.
  [[nodiscard]] static StaticModel analyze(const SetupFn& setup, int nprocs);

  [[nodiscard]] int nprocs() const { return nprocs_; }
  [[nodiscard]] int register_count() const {
    return static_cast<int>(facts_.size());
  }

  [[nodiscard]] const RegisterFacts& facts(RegId reg) const {
    return facts_[static_cast<std::size_t>(reg)];
  }
  [[nodiscard]] const SoloOutcome& solo_outcome(Pid pid) const {
    return solo_[static_cast<std::size_t>(pid)];
  }

  /// The static may-conflict relation: units of pids `a` and `b` were
  /// observed accessing `reg` with a write on either side. Computed
  /// strictly from collected facts — the over-approximation suite pins
  /// every dynamically observed conflict to this table, so a coverage
  /// hole in the pass fails that suite instead of hiding behind a
  /// conservative fallback.
  [[nodiscard]] bool may_conflict(RegId reg, Pid a, Pid b) const;

  /// Total scheduler units the pass collected (observability / tests).
  [[nodiscard]] std::uint64_t units_collected() const {
    return units_collected_;
  }

 private:
  StaticModel() = default;

  int nprocs_ = 0;
  std::vector<RegisterFacts> facts_;
  std::vector<SoloOutcome> solo_;
  std::uint64_t units_collected_ = 0;
};

}  // namespace cfc

#endif  // CFC_SA_STATIC_SUMMARY_H
