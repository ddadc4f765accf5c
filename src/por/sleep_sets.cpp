#include "por/sleep_sets.h"

namespace cfc {

SleepSet transfer_sleep(SleepSet candidates, const StepSummary& taken,
                        std::span<const NextStep> pends) {
  SleepSet child;
  for (Pid q = 0; q < static_cast<Pid>(pends.size()); ++q) {
    if (candidates.contains(q) &&
        !dependent(taken, pends[static_cast<std::size_t>(q)])) {
      child.insert(q);
    }
  }
  return child;
}

}  // namespace cfc
