#include "por/sleep_sets.h"

#include <bit>

namespace cfc {

SleepSet transfer_sleep(SleepSet candidates, const StepSummary& taken,
                        std::span<const NextStep> pends) {
  SleepSet child;
  const std::uint32_t in_range =
      pends.size() >= 32 ? ~0u
                         : (1u << static_cast<unsigned>(pends.size())) - 1u;
  for (std::uint32_t m = candidates.mask() & in_range; m != 0; m &= m - 1) {
    const auto q = static_cast<Pid>(std::countr_zero(m));
    if (!dependent(taken, pends[static_cast<std::size_t>(q)])) {
      child.insert(q);
    }
  }
  return child;
}

}  // namespace cfc
