#ifndef CFC_NAMING_CHECKERS_H
#define CFC_NAMING_CHECKERS_H

#include <cstdint>
#include <optional>
#include <vector>

#include "core/measures.h"
#include "naming/naming_algorithm.h"

namespace cfc {

/// Outcome of validating one completed naming run.
struct NamingRunCheck {
  bool all_terminated = false;    ///< every non-crashed process got a name
  bool names_unique = true;       ///< no two processes share a name
  bool names_in_range = true;     ///< all names in 1..name_space
  std::vector<int> names;         ///< claimed names (crashed: absent)
  /// Per-process full-run complexity (crashed processes included, with the
  /// steps they took before crashing).
  std::vector<ComplexityReport> per_process;

  [[nodiscard]] bool ok() const {
    return all_terminated && names_unique && names_in_range;
  }
};

/// Validates the outputs of a finished run — termination, uniqueness and
/// range of the claimed names — without measuring anything (`per_process`
/// stays empty), so it needs no materialized trace. Callers that measure
/// by streaming (the Study naming cells) validate with this.
[[nodiscard]] NamingRunCheck check_naming_names(const Sim& sim,
                                                int name_space);

/// check_naming_names() plus the per-process complexity of the run,
/// measured from its materialized trace.
[[nodiscard]] NamingRunCheck check_naming_run(const Sim& sim, int name_space);

/// Runs the algorithm under a seeded random schedule (optionally crashing
/// the processes listed in `crash_after` after the given access counts) and
/// validates it. Wait-freedom shows up as the run completing within the
/// budget even with crashed processes holding resources.
struct CrashPlanEntry {
  Pid pid;
  std::uint64_t after_accesses;
};

[[nodiscard]] NamingRunCheck run_naming_random(
    const NamingFactory& make, int n, std::uint64_t seed,
    const std::vector<CrashPlanEntry>& crashes = {},
    std::uint64_t budget = 1'000'000);

/// Runs the paper's contention-free schedule (processes one after another,
/// Section 3.2) and validates; returns the per-process reports, where the
/// maximum is the algorithm's measured contention-free complexity.
[[nodiscard]] NamingRunCheck run_naming_sequential(const NamingFactory& make,
                                                   int n);

/// Wait-freedom bound check: the maximum number of steps any single process
/// takes, over the given seeds and crash patterns. A wait-free algorithm's
/// value is bounded by a function of n only.
[[nodiscard]] int max_steps_any_process(const NamingFactory& make, int n,
                                        const std::vector<std::uint64_t>& seeds);

}  // namespace cfc

#endif  // CFC_NAMING_CHECKERS_H
