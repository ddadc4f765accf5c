#include "sched/sched.h"

namespace cfc {

RunOutcome drive(Sim& sim, Scheduler& sched, RunLimits limits) {
  std::uint64_t steps = 0;
  while (steps < limits.max_steps) {
    if (!sim.any_runnable()) {
      return RunOutcome::AllDone;
    }
    const std::optional<Pid> pick = sched.next(sim);
    if (!pick.has_value()) {
      return RunOutcome::SchedulerStopped;
    }
    sim.step(*pick);
    ++steps;
  }
  return RunOutcome::BudgetExhausted;
}

std::optional<Pid> SoloScheduler::next(const Sim& sim) {
  if (sim.runnable(pid_)) {
    return pid_;
  }
  return std::nullopt;
}

std::optional<Pid> SequentialScheduler::next(const Sim& sim) {
  while (at_ < order_.size() && !sim.runnable(order_[at_])) {
    ++at_;
  }
  if (at_ >= order_.size()) {
    return std::nullopt;
  }
  return order_[at_];
}

std::optional<Pid> RoundRobinScheduler::next(const Sim& sim) {
  const int n = sim.process_count();
  for (int i = 1; i <= n; ++i) {
    const Pid p = static_cast<Pid>((last_ + i) % n);
    if (sim.runnable(p)) {
      last_ = p;
      return p;
    }
  }
  return std::nullopt;
}

std::optional<Pid> RandomScheduler::next(const Sim& sim) {
  const std::vector<Pid>& ready = sim.runnable_pids();
  if (ready.empty()) {
    return std::nullopt;
  }
  std::uniform_int_distribution<std::size_t> pick(0, ready.size() - 1);
  return ready[pick(rng_)];
}

std::optional<Pid> ScriptedScheduler::next(const Sim& sim) {
  while (at_ < script_.size() && !sim.runnable(script_[at_])) {
    ++at_;
  }
  if (at_ >= script_.size()) {
    return std::nullopt;
  }
  return script_[at_++];
}

std::optional<Pid> RecordingScheduler::next(const Sim& sim) {
  const std::optional<Pid> pick = inner_->next(sim);
  if (pick.has_value()) {
    log_.push_back(*pick);
  }
  return pick;
}

std::uint64_t step_until(Sim& sim, Pid pid,
                         const std::function<bool(const Sim&)>& pred,
                         std::uint64_t max_steps) {
  std::uint64_t steps = 0;
  while (steps < max_steps && !pred(sim) && sim.runnable(pid)) {
    sim.step(pid);
    ++steps;
  }
  return steps;
}

std::uint64_t step_n(Sim& sim, Pid pid, std::uint64_t k) {
  std::uint64_t steps = 0;
  while (steps < k && sim.runnable(pid)) {
    sim.step(pid);
    ++steps;
  }
  return steps;
}

std::uint64_t run_to_completion(Sim& sim, Pid pid, std::uint64_t max_steps) {
  std::uint64_t steps = 0;
  while (steps < max_steps && sim.runnable(pid)) {
    sim.step(pid);
    ++steps;
  }
  return steps;
}

}  // namespace cfc
