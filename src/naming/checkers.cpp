#include "naming/checkers.h"

#include <set>

#include "core/adversary.h"
#include "sched/sched.h"

namespace cfc {

NamingRunCheck check_naming_names(const Sim& sim, int name_space) {
  NamingRunCheck out;
  out.all_terminated = true;
  std::set<int> seen;
  for (Pid p = 0; p < sim.process_count(); ++p) {
    if (sim.status(p) == ProcStatus::Crashed) {
      continue;  // a crashed process claims nothing
    }
    if (sim.status(p) != ProcStatus::Done || !sim.output(p).has_value()) {
      out.all_terminated = false;
      continue;
    }
    const int name = *sim.output(p);
    out.names.push_back(name);
    if (name < 1 || name > name_space) {
      out.names_in_range = false;
    }
    if (!seen.insert(name).second) {
      out.names_unique = false;
    }
  }
  return out;
}

NamingRunCheck check_naming_run(const Sim& sim, int name_space) {
  NamingRunCheck out = check_naming_names(sim, name_space);
  for (Pid p = 0; p < sim.process_count(); ++p) {
    out.per_process.push_back(measure_all(sim.trace(), p));
  }
  return out;
}

NamingRunCheck run_naming_random(const NamingFactory& make, int n,
                                 std::uint64_t seed,
                                 const std::vector<CrashPlanEntry>& crashes,
                                 std::uint64_t budget) {
  Sim sim;
  auto alg = setup_naming(sim, make, n);
  for (const CrashPlanEntry& c : crashes) {
    sim.crash_after(c.pid, c.after_accesses);
  }
  RandomScheduler rnd(seed);
  drive(sim, rnd, RunLimits{budget});
  return check_naming_run(sim, alg->name_space());
}

NamingRunCheck run_naming_sequential(const NamingFactory& make, int n) {
  Sim sim;
  auto alg = setup_naming(sim, make, n);
  run_sequentially(sim);
  return check_naming_run(sim, alg->name_space());
}

int max_steps_any_process(const NamingFactory& make, int n,
                          const std::vector<std::uint64_t>& seeds) {
  int worst = 0;
  for (const std::uint64_t seed : seeds) {
    const NamingRunCheck check = run_naming_random(make, n, seed);
    for (const ComplexityReport& rep : check.per_process) {
      worst = std::max(worst, rep.steps);
    }
  }
  return worst;
}

}  // namespace cfc
