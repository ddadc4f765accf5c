#ifndef CFC_MUTEX_CHECKERS_H
#define CFC_MUTEX_CHECKERS_H

#include <cstdint>
#include <vector>

#include "mutex/mutex_algorithm.h"

namespace cfc {

/// Safety and liveness checks over chosen schedule families. Exhaustive
/// safety within a depth bound is not here: the schedule-space Explorer
/// (analysis/explorer.h) with ReductionPolicy::Off and no objective counts
/// the completed runs, truncated runs and mutual-exclusion violations of
/// every interleaving, at any n.

/// Result of a systematic bounded-preemption exploration.
struct ExplorationResult {
  std::uint64_t plans_run = 0;        ///< schedules executed
  std::uint64_t violations = 0;       ///< mutual-exclusion violations seen
  std::uint64_t incomplete_runs = 0;  ///< runs that hit the finish budget
};

/// Systematically explores schedules of the form
///   run p_0 for k_0 accesses, p_1 for k_1, ..., p_m for k_m,
///   then finish fairly (round-robin),
/// over all pid sequences with up to `max_segments` segments (adjacent
/// segments use different pids) and segment lengths 1..`max_segment_len`.
/// The simulator's mutual-exclusion invariant check fires on any state with
/// two processes in their critical sections; violations are counted rather
/// than thrown.
///
/// This is a preemption-bounded model check: empirically, classic mutex
/// races are exposed by schedules with very few context switches, so small
/// bounds give high confidence at polynomial cost. Unlike the Explorer's
/// Bounded strategy, every plan ends in a fair round-robin finish, so the
/// same runs also check liveness (incomplete_runs).
[[nodiscard]] ExplorationResult explore_bounded_preemption(
    const MutexFactory& make, int n, int sessions, int max_segments,
    int max_segment_len, std::uint64_t finish_budget = 100'000);

/// Liveness under fair scheduling (deadlock freedom, and for these
/// algorithms starvation freedom in practice): every process completes all
/// its sessions under round-robin and under each seeded random schedule.
[[nodiscard]] bool deadlock_free_under_fair_schedules(
    const MutexFactory& make, int n, int sessions,
    const std::vector<std::uint64_t>& seeds,
    std::uint64_t budget = 1'000'000);

/// Runs every process through one contention-free session one after the
/// other and returns true iff all complete (weak deadlock freedom).
[[nodiscard]] bool completes_solo_sessions(const MutexFactory& make, int n,
                                           std::uint64_t budget = 100'000);

}  // namespace cfc

#endif  // CFC_MUTEX_CHECKERS_H
