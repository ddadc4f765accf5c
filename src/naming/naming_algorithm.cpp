#include "naming/naming_algorithm.h"

#include <stdexcept>
#include <string>
#include <utility>

namespace cfc {

Task<void> naming_driver(ProcessContext& ctx, NamingAlgorithm& alg) {
  ctx.set_section(Section::Working);
  const Value name = co_await alg.claim(ctx);
  ctx.set_output(static_cast<int>(name));
  ctx.set_section(Section::Done);
}

std::unique_ptr<NamingAlgorithm> setup_naming(Sim& sim,
                                              const NamingFactory& make,
                                              int n) {
  if (sim.process_count() != 0) {
    throw std::invalid_argument("setup_naming requires an empty sim");
  }
  std::unique_ptr<NamingAlgorithm> alg = make(sim.memory(), n);
  if (alg->capacity() < n) {
    throw std::invalid_argument("naming capacity below process count");
  }
  sim.set_model(alg->model());
  for (int i = 0; i < n; ++i) {
    NamingAlgorithm* a = alg.get();
    // Identical bodies: no slot/index reaches the algorithm.
    std::string name = "n";
    name += std::to_string(i);
    sim.spawn(std::move(name), [a](ProcessContext& ctx) {
      return naming_driver(ctx, *a);
    });
  }
  return alg;
}

}  // namespace cfc
