#include "mutex/mutex_algorithm.h"

#include <stdexcept>
#include <string>
#include <utility>

namespace cfc {

Task<void> mutex_driver(ProcessContext& ctx, MutexAlgorithm& alg, int slot,
                        int sessions) {
  for (int s = 0; s < sessions; ++s) {
    ctx.set_section(Section::Entry);
    co_await alg.enter(ctx, slot);
    ctx.set_section(Section::Critical);
    // No shared accesses in the critical section (Section 2.2 assumption),
    // but occupancy must span at least one state of the run so that the
    // mutual-exclusion invariant is observable; yield is not counted by any
    // measure.
    co_await ctx.yield();
    ctx.set_section(Section::Exit);
    co_await alg.exit(ctx, slot);
    ctx.set_section(Section::Remainder);
  }
}

std::unique_ptr<MutexAlgorithm> setup_mutex(Sim& sim, const MutexFactory& make,
                                            int n, int sessions) {
  if (sim.process_count() != 0) {
    throw std::invalid_argument("setup_mutex requires an empty sim");
  }
  std::unique_ptr<MutexAlgorithm> alg = make(sim.memory(), n);
  if (alg->capacity() < n) {
    throw std::invalid_argument("mutex capacity below process count");
  }
  sim.check_mutual_exclusion(true);
  for (int slot = 0; slot < n; ++slot) {
    MutexAlgorithm* a = alg.get();
    std::string name = "m";
    name += std::to_string(slot);
    sim.spawn(std::move(name),
              [a, slot, sessions](ProcessContext& ctx) {
                return mutex_driver(ctx, *a, slot, sessions);
              });
  }
  return alg;
}

}  // namespace cfc
