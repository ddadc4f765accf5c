// Recycled-rewind fidelity: Sim::rewind_to and Sim::rewind_to_mark must
// reposition the LIVE simulation at any prefix of its own schedule log
// indistinguishably from Sim::fork of a checkpoint taken there — across
// every registry algorithm, including crash injection — with frame
// recreation served entirely from the arena pool after warm-up, and the
// Explorer's mark restores must build zero Sims per restore.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "analysis/experiment.h"
#include "core/algorithm_registry.h"
#include "core/state_fingerprint.h"
#include "mutex/mutex_algorithm.h"
#include "sched/sched.h"

namespace cfc {
namespace {

struct CrashPlan {
  Pid pid;
  std::uint64_t after_accesses;
};

SimBuilder mutex_builder(const MutexFactory& factory, int n, int sessions,
                         std::vector<CrashPlan> crashes) {
  auto keep =
      std::make_shared<std::vector<std::unique_ptr<MutexAlgorithm>>>();
  return [factory, n, sessions, crashes, keep](Sim& sim) {
    keep->push_back(setup_mutex(sim, factory, n, sessions));
    for (const CrashPlan& c : crashes) {
      sim.crash_after(c.pid, c.after_accesses);
    }
  };
}

void expect_same_state(const Sim& a, const Sim& b) {
  ASSERT_EQ(a.process_count(), b.process_count());
  EXPECT_EQ(a.next_seq(), b.next_seq());
  EXPECT_EQ(a.memory().fingerprint(), b.memory().fingerprint());
  EXPECT_EQ(a.memory().snapshot(), b.memory().snapshot());
  EXPECT_EQ(state_fingerprint(a), state_fingerprint(b));
  for (Pid p = 0; p < a.process_count(); ++p) {
    EXPECT_EQ(a.status(p), b.status(p)) << "pid " << p;
    EXPECT_EQ(a.section(p), b.section(p)) << "pid " << p;
    EXPECT_EQ(a.output(p), b.output(p)) << "pid " << p;
    EXPECT_EQ(a.access_count(p), b.access_count(p)) << "pid " << p;
    EXPECT_EQ(a.process_digest(p), b.process_digest(p)) << "pid " << p;
  }
}

/// Runs a random schedule on a rewindable live sim, rewinds it to a
/// prefix, and differential-tests the result against a fork of the same
/// prefix — then drives both onward with identical schedulers and
/// compares again (the rewound sim must behave like the fork forever
/// after, crash plans included).
void rewind_and_compare(const MutexFactory& factory, int n,
                        const std::vector<CrashPlan>& crashes,
                        std::uint64_t seed) {
  const SimBuilder rebuild = mutex_builder(factory, n, 1, crashes);

  Sim live;
  rebuild(live);
  live.mark_rewind_base();
  RandomScheduler rnd(seed);
  drive(live, rnd, RunLimits{60});
  const std::size_t full_len = live.schedule_log().size();
  ASSERT_GT(full_len, 0u);
  const std::size_t prefix_len = full_len / 2;

  const std::unique_ptr<Sim> reference =
      Sim::fork(std::span(live.schedule_log().data(), prefix_len),
                /*expect_fingerprint=*/0, /*expect_seq=*/0, rebuild);
  live.rewind_to(prefix_len);
  ASSERT_EQ(live.schedule_log().size(), prefix_len);
  expect_same_state(live, *reference);

  RandomScheduler cont_a(seed + 17);
  RandomScheduler cont_b(seed + 17);
  drive(live, cont_a, RunLimits{40});
  drive(*reference, cont_b, RunLimits{40});
  expect_same_state(live, *reference);
}

TEST(Rewind, MatchesForkAcrossAllRegistryMutexAlgorithms) {
  for (const MutexAlgorithmEntry* e :
       AlgorithmRegistry::instance().mutex_for_n(2)) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(e->info.name);
      rewind_and_compare(e->factory, 2, {}, seed);
    }
  }
}

TEST(Rewind, MatchesForkUnderCrashInjection) {
  for (const MutexAlgorithmEntry* e :
       AlgorithmRegistry::instance().mutex_for_n(4)) {
    SCOPED_TRACE(e->info.name);
    rewind_and_compare(e->factory, 4, {{0, 3}, {2, 1}}, 5);
  }
}

TEST(Rewind, RewindToZeroAndFullLengthAreExact) {
  const MutexFactory factory =
      AlgorithmRegistry::instance().mutex("peterson-2p").factory;
  const SimBuilder rebuild = mutex_builder(factory, 2, 1, {});
  Sim live;
  rebuild(live);
  live.mark_rewind_base();
  RandomScheduler rnd(9);
  drive(live, rnd, RunLimits{30});
  const std::size_t full_len = live.schedule_log().size();
  const std::uint64_t fp = live.memory().fingerprint();
  const Seq seq = live.next_seq();

  // Full-length rewind: a complete in-place re-execution of the same run.
  live.rewind_to(full_len, fp, seq);
  EXPECT_EQ(live.memory().fingerprint(), fp);
  EXPECT_EQ(live.next_seq(), seq);

  // Rewind to zero: back to the post-setup baseline.
  live.rewind_to(0);
  EXPECT_TRUE(live.schedule_log().empty());
  for (Pid p = 0; p < live.process_count(); ++p) {
    EXPECT_EQ(live.status(p), ProcStatus::NotStarted);
  }
}

TEST(Rewind, VerifiesFingerprintAndSeq) {
  const MutexFactory factory =
      AlgorithmRegistry::instance().mutex("peterson-2p").factory;
  const SimBuilder rebuild = mutex_builder(factory, 2, 1, {});
  Sim live;
  rebuild(live);
  live.mark_rewind_base();
  RandomScheduler rnd(3);
  drive(live, rnd, RunLimits{20});
  const std::size_t len = live.schedule_log().size();
  const std::uint64_t fp = live.memory().fingerprint();
  const Seq seq = live.next_seq();

  live.rewind_to(len, fp, seq);  // correct expectation: accepted
  EXPECT_THROW(live.rewind_to(len, fp ^ 1, seq), std::logic_error);
}

TEST(Rewind, RequiresBaselineAndValidPrefix) {
  const MutexFactory factory =
      AlgorithmRegistry::instance().mutex("peterson-2p").factory;
  const SimBuilder rebuild = mutex_builder(factory, 2, 1, {});
  Sim unmarked;
  rebuild(unmarked);
  EXPECT_THROW(unmarked.rewind_to(0), std::logic_error);

  Sim live;
  rebuild(live);
  live.mark_rewind_base();
  RandomScheduler rnd(4);
  drive(live, rnd, RunLimits{10});
  EXPECT_THROW(live.rewind_to(live.schedule_log().size() + 1),
               std::out_of_range);

  // The baseline must be captured before any unit executes.
  Sim late;
  rebuild(late);
  RandomScheduler rnd2(4);
  drive(late, rnd2, RunLimits{2});
  EXPECT_THROW(late.mark_rewind_base(), std::logic_error);
}

TEST(Rewind, FrameRecreationIsServedFromThePoolAfterWarmup) {
  const MutexFactory factory =
      AlgorithmRegistry::instance().mutex("lamport-fast").factory;
  const SimBuilder rebuild = mutex_builder(factory, 3, 1, {});
  Sim live;
  rebuild(live);
  live.mark_rewind_base();
  RandomScheduler rnd(11);
  drive(live, rnd, RunLimits{40});
  const std::size_t len = live.schedule_log().size() / 2;

  live.rewind_to(len);  // warm-up: frees + recreates every frame once
  const std::uint64_t fresh_after_first = live.frame_arena_stats().fresh;
  ASSERT_GT(live.frame_arena_stats().reused + fresh_after_first, 0u);
  for (int i = 0; i < 5; ++i) {
    live.rewind_to(len);
  }
  // Identical replays recreate identical frames: all of them recycled,
  // zero fresh arena growth, zero heap fallbacks.
  EXPECT_EQ(live.frame_arena_stats().fresh, fresh_after_first);
  EXPECT_EQ(live.frame_arena_stats().fallback, 0u);
  EXPECT_GT(live.frame_arena_stats().reused, 0u);
}

TEST(Rewind, RestoresValueReplayFromMarks) {
  // The acceptance assertion of the in-place restore: across many restores
  // and work items, every restore value-replays from a mark instead of
  // re-executing the prefix live.
  const MutexFactory factory =
      AlgorithmRegistry::instance().mutex("peterson-2p").factory;
  Explorer::Config cfg;
  cfg.nprocs = 2;
  cfg.strategy = SearchStrategy::Exhaustive;
  cfg.limits.max_depth = 14;
  cfg.setup = [&factory](Sim& sim) -> std::shared_ptr<void> {
    return setup_mutex(sim, factory, 2, 1);
  };
  ExperimentRunner pool(4);
  const Explorer::Result r = Explorer(cfg).run(&pool);
  ASSERT_GT(r.stats.restores, 0u);
  ASSERT_GT(r.stats.work_items, 1u);
  EXPECT_GT(r.stats.restore_marks, 0u);
  EXPECT_GT(r.stats.value_replayed_steps, 0u);
}

/// Mark-based partial restore, sim level: capture a RewindMark mid-run,
/// run on, rewind back to the mark, and differential-test against a fork
/// of the same prefix — then drive both onward identically (the restored
/// sim must behave like the fork forever after, crash plans included).
void mark_rewind_and_compare(const MutexFactory& factory, int n,
                             const std::vector<CrashPlan>& crashes,
                             std::uint64_t seed) {
  const SimBuilder rebuild = mutex_builder(factory, n, 1, crashes);

  Sim live;
  rebuild(live);
  live.mark_rewind_base();
  RandomScheduler rnd(seed);
  drive(live, rnd, RunLimits{30});
  Sim::RewindMark mark;
  live.capture_mark(mark);
  const std::size_t prefix_len = live.schedule_log().size();
  RandomScheduler more(seed + 99);
  drive(live, more, RunLimits{30});

  const std::unique_ptr<Sim> reference =
      Sim::fork(std::span(live.schedule_log().data(), prefix_len),
                /*expect_fingerprint=*/0, /*expect_seq=*/0, rebuild);
  const std::size_t fed = live.rewind_to_mark(mark);
  ASSERT_EQ(live.schedule_log().size(), prefix_len);
  // Only processes that acted past the mark are value-replayed, so the
  // fed-unit count never exceeds the full-replay cost.
  EXPECT_LE(fed, prefix_len);
  expect_same_state(live, *reference);

  RandomScheduler cont_a(seed + 17);
  RandomScheduler cont_b(seed + 17);
  drive(live, cont_a, RunLimits{40});
  drive(*reference, cont_b, RunLimits{40});
  expect_same_state(live, *reference);
}

TEST(Rewind, MarkRestoreMatchesForkAcrossAllRegistryMutexAlgorithms) {
  for (const MutexAlgorithmEntry* e :
       AlgorithmRegistry::instance().mutex_for_n(2)) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(e->info.name);
      mark_rewind_and_compare(e->factory, 2, {}, seed);
    }
  }
}

TEST(Rewind, MarkRestoreMatchesForkUnderCrashInjection) {
  for (const MutexAlgorithmEntry* e :
       AlgorithmRegistry::instance().mutex_for_n(4)) {
    SCOPED_TRACE(e->info.name);
    mark_rewind_and_compare(e->factory, 4, {{0, 3}, {2, 1}}, 5);
  }
}

TEST(Rewind, MarkRestoreAtLargeNVisitsOnlyTheProcessesThatActed) {
  // n=300, three processes act past the mark: one that had started before
  // it, one that had not started at it, and one that finishes past it.
  // The restore must leave exactly the state a full rewind_to() of the
  // same prefix leaves, and value-replay only the actors' prefix units.
  const int n = 300;
  const Pid started = 17;    // started at the mark, steps past it
  const Pid fresh = 151;     // not started at the mark
  const Pid finisher = 299;  // mid-session at the mark, finishes past it
  const MutexFactory factory =
      AlgorithmRegistry::instance().mutex("lamport-fast").factory;
  const SimBuilder rebuild = mutex_builder(factory, n, 1, {});

  // Both sims run the same units; `live` is restored from the mark,
  // `reference` by rewind_to.
  Sim live;
  Sim reference;
  const auto run_prefix = [&](Sim& sim) {
    rebuild(sim);
    sim.mark_rewind_base();
    sim.step(finisher);
    sim.step(finisher);
    sim.ensure_started(started);
  };
  const auto run_suffix = [&](Sim& sim) {
    for (int guard = 0; sim.runnable(finisher) && guard < 1'000; ++guard) {
      sim.step(finisher);
    }
    sim.step(fresh);
    sim.step(fresh);
    sim.step(started);
  };
  run_prefix(live);
  run_prefix(reference);
  Sim::RewindMark mark;
  live.capture_mark(mark);
  const std::size_t prefix_len = live.schedule_log().size();
  run_suffix(live);
  run_suffix(reference);
  ASSERT_EQ(live.status(finisher), ProcStatus::Done);
  ASSERT_EQ(live.schedule_log().size(), reference.schedule_log().size());

  // The units a mark restore owes: the actors' own units in the prefix.
  std::size_t owed = 0;
  for (std::size_t i = 0; i < prefix_len; ++i) {
    const Pid p = live.schedule_log()[i].pid;
    owed += (p == started || p == fresh || p == finisher) ? 1 : 0;
  }
  ASSERT_GT(owed, 0u);

  const std::size_t fed = live.rewind_to_mark(mark);
  reference.rewind_to(prefix_len);
  EXPECT_EQ(fed, owed);
  ASSERT_EQ(live.schedule_log().size(), prefix_len);
  EXPECT_EQ(live.runnable_pids(), reference.runnable_pids());
  EXPECT_EQ(live.runnable_pids().size(), static_cast<std::size_t>(n));
  expect_same_state(live, reference);

  // Onward, the restored sim behaves like the reference.
  RandomScheduler cont_a(23);
  RandomScheduler cont_b(23);
  drive(live, cont_a, RunLimits{400});
  drive(reference, cont_b, RunLimits{400});
  EXPECT_EQ(live.runnable_pids(), reference.runnable_pids());
  expect_same_state(live, reference);
}

}  // namespace
}  // namespace cfc
