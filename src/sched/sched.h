#ifndef CFC_SCHED_SCHED_H
#define CFC_SCHED_SCHED_H

#include <cstdint>
#include <functional>
#include <optional>
#include <random>
#include <vector>

#include "sched/sim.h"

namespace cfc {

/// A scheduler resolves the nondeterminism of the asynchronous model: at
/// each point it picks which process performs the next event. The paper's
/// adversary arguments are schedulers; its contention-free runs are the
/// Solo / Sequential schedulers below.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Next process to step, or nullopt to stop the run.
  virtual std::optional<Pid> next(const Sim& sim) = 0;
};

/// Result of driving a simulation with a scheduler.
enum class RunOutcome : std::uint8_t {
  AllDone,           ///< every process ran to completion (or crashed)
  SchedulerStopped,  ///< the scheduler returned nullopt
  BudgetExhausted,   ///< step budget ran out (e.g. busy-wait loops)
};

struct RunLimits {
  std::uint64_t max_steps = 1'000'000;
};

/// Drives `sim` until completion, scheduler stop, or budget exhaustion.
/// Completion is Sim::any_runnable() going false, an O(1) read of the
/// simulation's runnable list, so a pick costs no scan of all n processes.
RunOutcome drive(Sim& sim, Scheduler& sched, RunLimits limits = {});

/// Contention-free scheduler for a single process: runs only `pid`; all
/// other processes never start (they stay in their remainder region), which
/// is exactly the paper's contention-free run condition.
class SoloScheduler final : public Scheduler {
 public:
  explicit SoloScheduler(Pid pid) : pid_(pid) {}
  std::optional<Pid> next(const Sim& sim) override;

 private:
  Pid pid_;
};

/// Contention-free scheduler for one-shot tasks (naming, detection): runs
/// processes one after the other, each to completion before the next starts
/// (Section 3.2's contention-free runs and the Theorem 5/7 adversary).
class SequentialScheduler final : public Scheduler {
 public:
  explicit SequentialScheduler(std::vector<Pid> order)
      : order_(std::move(order)) {}
  std::optional<Pid> next(const Sim& sim) override;

 private:
  std::vector<Pid> order_;
  std::size_t at_ = 0;
};

/// Fair round-robin over runnable processes.
class RoundRobinScheduler final : public Scheduler {
 public:
  std::optional<Pid> next(const Sim& sim) override;

 private:
  Pid last_ = -1;
};

/// Uniformly random choice among runnable processes; deterministic given the
/// seed. The workhorse for property tests and worst-case search. One pick
/// is one draw indexing Sim::runnable_pids() (ascending pids), so it costs
/// O(1) rather than a scan of all n processes.
class RandomScheduler final : public Scheduler {
 public:
  explicit RandomScheduler(std::uint64_t seed) : rng_(seed) {}
  std::optional<Pid> next(const Sim& sim) override;

 private:
  std::mt19937_64 rng_;
};

/// Replays an explicit pid sequence (the scripted adversaries of the
/// lower-bound proofs); stops at the end of the script. Script entries
/// naming non-runnable processes are skipped.
class ScriptedScheduler final : public Scheduler {
 public:
  explicit ScriptedScheduler(std::vector<Pid> script)
      : script_(std::move(script)) {}
  std::optional<Pid> next(const Sim& sim) override;

 private:
  std::vector<Pid> script_;
  std::size_t at_ = 0;
};

/// Wraps any scheduler and records the pid sequence it produced, so the
/// exact run can be replayed later with ScriptedScheduler — deterministic
/// reproduction of any schedule (e.g. a failing random seed) independent of
/// the original scheduler's state.
class RecordingScheduler final : public Scheduler {
 public:
  explicit RecordingScheduler(Scheduler& inner) : inner_(&inner) {}
  std::optional<Pid> next(const Sim& sim) override;

  [[nodiscard]] const std::vector<Pid>& schedule() const { return log_; }

 private:
  Scheduler* inner_;
  std::vector<Pid> log_;
};

/// --- Step-level helpers for hand-built adversary constructions. ---

/// Steps `pid` until `pred(sim)` holds or the process stops being runnable
/// or `max_steps` accesses were performed. Returns the number of accesses.
std::uint64_t step_until(Sim& sim, Pid pid,
                         const std::function<bool(const Sim&)>& pred,
                         std::uint64_t max_steps = 100'000);

/// Steps `pid` exactly `k` accesses (or until not runnable). Returns the
/// number of accesses performed.
std::uint64_t step_n(Sim& sim, Pid pid, std::uint64_t k);

/// Steps `pid` until it terminates (or budget). Returns accesses performed.
std::uint64_t run_to_completion(Sim& sim, Pid pid,
                                std::uint64_t max_steps = 100'000);

}  // namespace cfc

#endif  // CFC_SCHED_SCHED_H
