#ifndef CFC_POR_SLEEP_SETS_H
#define CFC_POR_SLEEP_SETS_H

#include <cstdint>
#include <span>

#include "por/dependence.h"

namespace cfc {

/// Sleep sets are process bitmasks: plenty for every algorithm in the
/// registry and checked by the Explorer constructor.
inline constexpr int kMaxPorProcs = 32;

/// Source-DPOR keeps sets of trace positions as 64-bit masks, so a path
/// holds at most this many units: checked by the Explorer constructor
/// against a SourceDpor search's max_depth.
inline constexpr int kMaxPorDepth = 64;

/// A sleep set: the processes whose next unit, taken from the current
/// state, starts only schedules that are reorderings of schedules already
/// explored through an earlier sibling (Godefroid's sleep sets). The
/// sleep-set-aware visited cache stores raw masks, so the representation
/// stays a transparent 32-bit mask with set-algebra helpers.
class SleepSet {
 public:
  constexpr SleepSet() = default;
  constexpr explicit SleepSet(std::uint32_t mask) : mask_(mask) {}

  [[nodiscard]] constexpr bool contains(Pid p) const {
    return ((mask_ >> static_cast<unsigned>(p)) & 1u) != 0;
  }
  constexpr void insert(Pid p) { mask_ |= 1u << static_cast<unsigned>(p); }
  constexpr void erase(Pid p) { mask_ &= ~(1u << static_cast<unsigned>(p)); }
  [[nodiscard]] constexpr bool empty() const { return mask_ == 0; }
  [[nodiscard]] constexpr std::uint32_t mask() const { return mask_; }

  friend constexpr bool operator==(SleepSet a, SleepSet b) {
    return a.mask_ == b.mask_;
  }

 private:
  std::uint32_t mask_ = 0;
};

/// Full sleep-set transfer (the measurement-aware relation): of the
/// parent's sleepers and earlier-explored siblings (`candidates`), the
/// child keeps asleep exactly those whose captured next step is
/// independent of the unit just executed (`taken`) — a dependent step
/// wakes the sleeper. `pends` holds every process's NextStep captured at
/// the parent node, indexed by pid; the executing process itself must not
/// be in `candidates`.
[[nodiscard]] SleepSet transfer_sleep(SleepSet candidates,
                                      const StepSummary& taken,
                                      std::span<const NextStep> pends);

}  // namespace cfc

#endif  // CFC_POR_SLEEP_SETS_H
