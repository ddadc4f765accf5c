#include "mutex/checkers.h"

#include <functional>

#include "core/adversary.h"
#include "sched/sched.h"

namespace cfc {

namespace {

/// Runs one bounded-preemption plan; returns true on an ME violation.
bool run_plan(const MutexFactory& make, int n, int sessions,
              const std::vector<std::pair<Pid, int>>& plan,
              std::uint64_t finish_budget, bool& incomplete) {
  Sim sim;
  auto alg = setup_mutex(sim, make, n, sessions);
  try {
    for (const auto& [pid, len] : plan) {
      for (int i = 0; i < len && sim.runnable(pid); ++i) {
        sim.step(pid);
      }
    }
    RoundRobinScheduler rr;
    const RunOutcome out = drive(sim, rr, RunLimits{finish_budget});
    if (out != RunOutcome::AllDone) {
      incomplete = true;
    }
  } catch (const MutualExclusionViolation&) {
    return true;
  }
  return false;
}

void enumerate_plans(int n, int max_segments, int max_segment_len,
                     std::vector<std::pair<Pid, int>>& plan,
                     const std::function<void()>& visit) {
  visit();  // also test the pure round-robin completion (empty prefix)
  if (static_cast<int>(plan.size()) >= max_segments) {
    return;
  }
  const Pid last = plan.empty() ? -1 : plan.back().first;
  for (Pid p = 0; p < n; ++p) {
    if (p == last) {
      continue;  // merging equal adjacent segments is redundant
    }
    for (int len = 1; len <= max_segment_len; ++len) {
      plan.emplace_back(p, len);
      enumerate_plans(n, max_segments, max_segment_len, plan, visit);
      plan.pop_back();
    }
  }
}

}  // namespace

ExplorationResult explore_bounded_preemption(const MutexFactory& make, int n,
                                             int sessions, int max_segments,
                                             int max_segment_len,
                                             std::uint64_t finish_budget) {
  ExplorationResult res;
  std::vector<std::pair<Pid, int>> plan;
  enumerate_plans(n, max_segments, max_segment_len, plan, [&]() {
    bool incomplete = false;
    if (run_plan(make, n, sessions, plan, finish_budget, incomplete)) {
      res.violations += 1;
    }
    if (incomplete) {
      res.incomplete_runs += 1;
    }
    res.plans_run += 1;
  });
  return res;
}

bool deadlock_free_under_fair_schedules(const MutexFactory& make, int n,
                                        int sessions,
                                        const std::vector<std::uint64_t>& seeds,
                                        std::uint64_t budget) {
  {
    Sim sim;
    auto alg = setup_mutex(sim, make, n, sessions);
    RoundRobinScheduler rr;
    if (drive(sim, rr, RunLimits{budget}) != RunOutcome::AllDone) {
      return false;
    }
  }
  for (const std::uint64_t seed : seeds) {
    Sim sim;
    auto alg = setup_mutex(sim, make, n, sessions);
    RandomScheduler rnd(seed);
    if (drive(sim, rnd, RunLimits{budget}) != RunOutcome::AllDone) {
      return false;
    }
  }
  return true;
}

bool completes_solo_sessions(const MutexFactory& make, int n,
                             std::uint64_t budget) {
  Sim sim;
  auto alg = setup_mutex(sim, make, n, 1);
  return run_sequentially(sim, budget);
}

}  // namespace cfc
