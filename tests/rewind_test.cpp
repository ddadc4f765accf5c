// Restore fidelity: Sim::rewind_to and Sim::rewind_to_mark must reposition
// the LIVE simulation at any prefix of its own schedule log
// indistinguishably from a freshly built simulation stepped live along the
// same units — across every registry algorithm, including crash injection,
// multi-grain field writes and branches diverging from one restore point —
// with frame recreation served entirely from the arena pool after warm-up,
// and the Explorer's mark restores must build zero Sims per restore. Steps
// served from the transition table must be indistinguishable from live
// ones, and a body that breaks the table's contract must be caught.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/experiment.h"
#include "core/algorithm_registry.h"
#include "core/contention_detection.h"
#include "core/state_fingerprint.h"
#include "mutex/mutex_algorithm.h"
#include "naming/naming_algorithm.h"
#include "sched/sched.h"

namespace cfc {

/// Reaches into a Sim's value tapes and schedule log to corrupt them.
struct SimTestPeer {
  static std::vector<Value>& tape(Sim& sim, Pid pid) {
    return sim.tape_[static_cast<std::size_t>(pid)];
  }
  static std::vector<ScheduleUnit>& log(Sim& sim) { return sim.sched_log_; }
};

namespace {

struct CrashPlan {
  Pid pid;
  std::uint64_t after_accesses;
};

/// A deterministic mutex setup with crash injection; every call builds an
/// identical configuration. `keep` holds every built algorithm alive for
/// the sims' sake.
using Build = std::function<void(Sim&)>;

Build mutex_builder(const MutexFactory& factory, int n, int sessions,
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

/// The oracle: a freshly built simulation stepped live (sinks and
/// invariant checks on) along `units`. It shares no restore code with
/// the simulations under test.
std::unique_ptr<Sim> scratch_replay(const Build& build,
                                    std::span<const ScheduleUnit> units) {
  auto sim = std::make_unique<Sim>();
  build(*sim);
  for (const ScheduleUnit& u : units) {
    if (u.start_only) {
      sim->ensure_started(u.pid);
    } else {
      sim->step(u.pid);
    }
  }
  return sim;
}

std::span<const ScheduleUnit> log_prefix(const Sim& sim, std::size_t len) {
  return {sim.schedule_log().data(), len};
}

void expect_same_state(const Sim& a, const Sim& b) {
  ASSERT_EQ(a.process_count(), b.process_count());
  EXPECT_EQ(a.next_seq(), b.next_seq());
  EXPECT_EQ(a.memory().fingerprint(), b.memory().fingerprint());
  EXPECT_EQ(a.memory().snapshot(), b.memory().snapshot());
  EXPECT_EQ(state_fingerprint(a), state_fingerprint(b));
  EXPECT_EQ(a.runnable_pids(), b.runnable_pids());
  for (Pid p = 0; p < a.process_count(); ++p) {
    EXPECT_EQ(a.status(p), b.status(p)) << "pid " << p;
    EXPECT_EQ(a.section(p), b.section(p)) << "pid " << p;
    EXPECT_EQ(a.output(p), b.output(p)) << "pid " << p;
    EXPECT_EQ(a.access_count(p), b.access_count(p)) << "pid " << p;
    EXPECT_EQ(a.process_digest(p), b.process_digest(p)) << "pid " << p;
  }
}

/// Drives both simulations onward with identical schedulers and compares
/// again: a restored sim must behave like the oracle forever after, crash
/// plans included.
void continue_and_compare(Sim& live, Sim& oracle, std::uint64_t seed,
                          std::uint64_t steps) {
  RandomScheduler cont_a(seed);
  RandomScheduler cont_b(seed);
  drive(live, cont_a, RunLimits{steps});
  drive(oracle, cont_b, RunLimits{steps});
  expect_same_state(live, oracle);
}

/// Runs a random schedule on a rewindable live sim, rewinds it to a
/// prefix, and differential-tests the result against a scratch replay of
/// the same prefix.
void rewind_and_compare(const MutexFactory& factory, int n,
                        const std::vector<CrashPlan>& crashes,
                        std::uint64_t seed) {
  const Build build = mutex_builder(factory, n, 1, crashes);

  Sim live;
  build(live);
  live.mark_rewind_base();
  RandomScheduler rnd(seed);
  drive(live, rnd, RunLimits{60});
  const std::size_t full_len = live.schedule_log().size();
  ASSERT_GT(full_len, 0u);
  const std::size_t prefix_len = full_len / 2;

  const std::unique_ptr<Sim> oracle =
      scratch_replay(build, log_prefix(live, prefix_len));
  live.rewind_to(prefix_len);
  ASSERT_EQ(live.schedule_log().size(), prefix_len);
  expect_same_state(live, *oracle);
  continue_and_compare(live, *oracle, seed + 17, 40);
}

TEST(Rewind, MatchesScratchReplayAcrossAllRegistryMutexAlgorithms) {
  for (const MutexAlgorithmEntry* e :
       AlgorithmRegistry::instance().mutex_for_n(2)) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(e->info.name);
      rewind_and_compare(e->factory, 2, {}, seed);
    }
  }
}

TEST(Rewind, MatchesScratchReplayUnderCrashInjection) {
  for (const MutexAlgorithmEntry* e :
       AlgorithmRegistry::instance().mutex_for_n(4)) {
    SCOPED_TRACE(e->info.name);
    rewind_and_compare(e->factory, 4, {{0, 3}, {2, 1}}, 5);
  }
}

TEST(Rewind, RewindToZeroAndFullLengthAreExact) {
  const MutexFactory factory =
      AlgorithmRegistry::instance().mutex("peterson-2p").factory;
  const Build build = mutex_builder(factory, 2, 1, {});
  Sim live;
  build(live);
  live.mark_rewind_base();
  RandomScheduler rnd(9);
  drive(live, rnd, RunLimits{30});
  const std::size_t full_len = live.schedule_log().size();
  const std::uint64_t fp = live.memory().fingerprint();
  const Seq seq = live.next_seq();
  const std::unique_ptr<Sim> whole =
      scratch_replay(build, log_prefix(live, full_len));

  // Full-length rewind: a complete in-place re-execution of the same run.
  live.rewind_to(full_len, fp, seq);
  EXPECT_EQ(live.memory().fingerprint(), fp);
  EXPECT_EQ(live.next_seq(), seq);
  expect_same_state(live, *whole);

  // Rewind to zero: back to the post-setup baseline.
  live.rewind_to(0);
  EXPECT_TRUE(live.schedule_log().empty());
  for (Pid p = 0; p < live.process_count(); ++p) {
    EXPECT_EQ(live.status(p), ProcStatus::NotStarted);
  }
  const std::unique_ptr<Sim> fresh = scratch_replay(build, {});
  expect_same_state(live, *fresh);
}

TEST(Rewind, VerifiesFingerprintAndSeq) {
  const MutexFactory factory =
      AlgorithmRegistry::instance().mutex("peterson-2p").factory;
  const Build build = mutex_builder(factory, 2, 1, {});
  Sim live;
  build(live);
  live.mark_rewind_base();
  RandomScheduler rnd(3);
  drive(live, rnd, RunLimits{20});
  const std::size_t len = live.schedule_log().size();
  const std::uint64_t fp = live.memory().fingerprint();
  const Seq seq = live.next_seq();

  live.rewind_to(len, fp, seq);  // correct expectation: accepted
  EXPECT_THROW(live.rewind_to(len, fp ^ 1, seq), std::logic_error);

  // A mark whose fingerprint disagrees with its memory is refused too.
  live.rewind_to(len / 2);
  Sim::RewindMark mark;
  live.capture_mark(mark);
  mark.fingerprint ^= 1;
  EXPECT_THROW(live.rewind_to_mark(mark), std::logic_error);
}

TEST(Rewind, TapeOrLogOutOfSyncIsCaught) {
  // The restore checks the tapes against the schedule log only for the
  // processes acting past the mark, plus a running unit count; the mark's
  // capture checks every tape. Every corruption the old whole-tape sum
  // caught throws std::logic_error from one of the two.
  const MutexFactory factory =
      AlgorithmRegistry::instance().mutex("peterson-2p").factory;
  const Build build = mutex_builder(factory, 2, 1, {});
  // A run with units of both processes past the mark (pid 1 unstarted at
  // it), rewound to `mark` after `corrupt`.
  const auto run = [&](const std::function<void(Sim&)>& corrupt,
                       bool expect_throw) {
    Sim live;
    build(live);
    live.mark_rewind_base();
    live.step(0);
    live.step(0);
    Sim::RewindMark mark;
    live.capture_mark(mark);
    live.step(0);
    live.step(1);
    live.step(1);
    corrupt(live);
    if (expect_throw) {
      EXPECT_THROW(live.rewind_to_mark(mark), std::logic_error);
    } else {
      live.rewind_to_mark(mark);
    }
  };
  run([](Sim&) {}, false);
  // A touched process's tape gains or loses a value.
  run([](Sim& sim) { SimTestPeer::tape(sim, 1).push_back(7); }, true);
  run([](Sim& sim) { SimTestPeer::tape(sim, 0).pop_back(); }, true);
  // The log gains a unit, loses one, or attributes one to another pid.
  run([](Sim& sim) { SimTestPeer::log(sim).push_back({0, false}); }, true);
  run([](Sim& sim) { SimTestPeer::log(sim).pop_back(); }, true);
  run([](Sim& sim) { SimTestPeer::log(sim).back().pid = 0; }, true);
  // The log loses the only unit past the mark: no process looks touched,
  // and the running unit count catches it.
  {
    Sim live;
    build(live);
    live.mark_rewind_base();
    live.step(0);
    Sim::RewindMark mark;
    live.capture_mark(mark);
    live.step(0);
    SimTestPeer::log(live).pop_back();
    EXPECT_THROW(live.rewind_to_mark(mark), std::logic_error);
  }
  // The tape of a process with no units past the mark grows: the next
  // capture's whole check refuses the desynced run.
  Sim live;
  build(live);
  live.mark_rewind_base();
  live.step(0);
  SimTestPeer::tape(live, 1).push_back(7);
  Sim::RewindMark mark;
  EXPECT_THROW(live.capture_mark(mark), std::logic_error);
}

TEST(Rewind, WritesBackOnlyTheRegistersWrittenPastTheMark) {
  // A restore rewrites the registers the run wrote past the mark; a
  // register changed outside the simulator is not among them, and the
  // fingerprint check refuses the restore.
  const MutexFactory factory =
      AlgorithmRegistry::instance().mutex("peterson-2p").factory;
  const Build build = mutex_builder(factory, 2, 1, {});
  Sim live;
  build(live);
  live.mark_rewind_base();
  RandomScheduler rnd(5);
  drive(live, rnd, RunLimits{6});
  Sim::RewindMark mark;
  live.capture_mark(mark);
  drive(live, rnd, RunLimits{6});
  live.rewind_to_mark(mark);
  EXPECT_EQ(live.memory().snapshot(), mark.memory);
  EXPECT_EQ(live.memory().fingerprint(), mark.fingerprint);

  const RegId r = 0;
  live.memory().poke(r, live.memory().peek(r) ^ 1);
  EXPECT_THROW(live.rewind_to_mark(mark), std::logic_error);
}

TEST(Rewind, RequiresBaselineAndValidPrefix) {
  const MutexFactory factory =
      AlgorithmRegistry::instance().mutex("peterson-2p").factory;
  const Build build = mutex_builder(factory, 2, 1, {});
  Sim unmarked;
  build(unmarked);
  EXPECT_THROW(unmarked.rewind_to(0), std::logic_error);

  Sim live;
  build(live);
  live.mark_rewind_base();
  RandomScheduler rnd(4);
  drive(live, rnd, RunLimits{10});
  EXPECT_THROW(live.rewind_to(live.schedule_log().size() + 1),
               std::out_of_range);

  // The baseline must be captured before any unit executes.
  Sim late;
  build(late);
  RandomScheduler rnd2(4);
  drive(late, rnd2, RunLimits{2});
  EXPECT_THROW(late.mark_rewind_base(), std::logic_error);
}

TEST(Rewind, CrashPlansAreFixedOnceTheBaselineIsMarked) {
  // Restores keep each process's crash plan as it is, so a plan set after
  // the baseline would survive a rewind past the point it was set: the
  // simulator refuses it. A plan set during setup holds across rewinds.
  const MutexFactory factory =
      AlgorithmRegistry::instance().mutex("peterson-2p").factory;
  const Build build = mutex_builder(factory, 2, 1, {{0, 1}});
  Sim live;
  build(live);
  live.mark_rewind_base();
  EXPECT_THROW(live.crash_after(1, 0), std::logic_error);
  SoloScheduler solo(0);
  drive(live, solo, RunLimits{50});
  EXPECT_EQ(live.status(0), ProcStatus::Crashed);
  live.rewind_to(0);
  EXPECT_THROW(live.crash_after(0, 5), std::logic_error);
  drive(live, solo, RunLimits{50});
  EXPECT_EQ(live.status(0), ProcStatus::Crashed);
  EXPECT_EQ(live.access_count(0), 1u);
}

TEST(Rewind, FrameRecreationIsServedFromThePoolAfterWarmup) {
  const MutexFactory factory =
      AlgorithmRegistry::instance().mutex("lamport-fast").factory;
  const Build build = mutex_builder(factory, 3, 1, {});
  Sim live;
  build(live);
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

/// Units a mark at `prefix_len` owes process `pid` on its first step after
/// a restore: its own units in the prefix (start unit included).
std::uint64_t owed_units(const Sim& sim, std::size_t prefix_len, Pid pid) {
  std::uint64_t owed = 0;
  for (std::size_t i = 0; i < prefix_len; ++i) {
    owed += sim.schedule_log()[i].pid == pid ? 1 : 0;
  }
  return owed;
}

/// Steps `pid` on both simulations and returns the units the live one
/// value-replayed doing it.
std::uint64_t step_both(Sim& live, Sim& oracle, Pid pid) {
  const std::uint64_t before = live.value_replayed_units();
  live.step(pid);
  oracle.step(pid);
  return live.value_replayed_units() - before;
}

TEST(Rewind, RestoresValueReplayFromMarks) {
  // The acceptance assertion of the in-place restore: a restore itself
  // replays nothing; each process that acted past the mark value-replays
  // its owed units from its tape on its first step after it (never
  // re-executing the prefix live), and across many restores and work
  // items the explorer counts those units.
  const MutexFactory factory =
      AlgorithmRegistry::instance().mutex("peterson-2p").factory;
  const Build build = mutex_builder(factory, 2, 1, {});
  Sim live;
  build(live);
  live.mark_rewind_base();
  RandomScheduler rnd(7);
  drive(live, rnd, RunLimits{12});
  Sim::RewindMark mark;
  live.capture_mark(mark);
  const std::size_t prefix_len = live.schedule_log().size();
  live.step(0);
  live.rewind_to_mark(mark);
  EXPECT_EQ(live.value_replayed_units(), 0u);
  const std::unique_ptr<Sim> oracle =
      scratch_replay(build, log_prefix(live, prefix_len));
  ASSERT_GT(owed_units(live, prefix_len, 0), 0u);
  EXPECT_EQ(step_both(live, *oracle, 1), 0u);  // untouched
  EXPECT_EQ(step_both(live, *oracle, 0), owed_units(live, prefix_len, 0));
  EXPECT_EQ(step_both(live, *oracle, 0), 0u);  // already resynced
  expect_same_state(live, *oracle);

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
/// run on, rewind back to the mark, and differential-test against a
/// scratch replay of the same prefix.
void mark_rewind_and_compare(const MutexFactory& factory, int n,
                             const std::vector<CrashPlan>& crashes,
                             std::uint64_t seed) {
  const Build build = mutex_builder(factory, n, 1, crashes);

  Sim live;
  build(live);
  live.mark_rewind_base();
  RandomScheduler rnd(seed);
  drive(live, rnd, RunLimits{30});
  Sim::RewindMark mark;
  live.capture_mark(mark);
  const std::size_t prefix_len = live.schedule_log().size();
  RandomScheduler more(seed + 99);
  drive(live, more, RunLimits{30});

  const std::unique_ptr<Sim> oracle =
      scratch_replay(build, log_prefix(live, prefix_len));
  const std::uint64_t replayed = live.value_replayed_units();
  live.rewind_to_mark(mark);
  ASSERT_EQ(live.schedule_log().size(), prefix_len);
  // The restore itself replays nothing: touched processes replay on their
  // next step.
  EXPECT_EQ(live.value_replayed_units(), replayed);
  expect_same_state(live, *oracle);
  continue_and_compare(live, *oracle, seed + 17, 40);
}

TEST(Rewind, MarkRestoreMatchesScratchReplayAcrossAllRegistryMutexAlgorithms) {
  for (const MutexAlgorithmEntry* e :
       AlgorithmRegistry::instance().mutex_for_n(2)) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(e->info.name);
      mark_rewind_and_compare(e->factory, 2, {}, seed);
    }
  }
}

TEST(Rewind, MarkRestoreMatchesScratchReplayUnderCrashInjection) {
  for (const MutexAlgorithmEntry* e :
       AlgorithmRegistry::instance().mutex_for_n(4)) {
    SCOPED_TRACE(e->info.name);
    mark_rewind_and_compare(e->factory, 4, {{0, 3}, {2, 1}}, 5);
  }
}

TEST(Rewind, MarkRestoreAtLargeNVisitsOnlyTheProcessesThatActed) {
  // n=300, three processes act past the mark: one that had started before
  // it, one that had not started at it, and one that finishes past it.
  // The restore must leave exactly the state of a scratch replay of the
  // same prefix and replay nothing itself. The first step of each actor
  // replays exactly its own prefix units; an untouched process, one not
  // started at the mark, and one not stepped again before the next restore
  // replay none.
  const int n = 300;
  const Pid started = 17;    // started at the mark, steps past it
  const Pid fresh = 151;     // not started at the mark
  const Pid finisher = 299;  // mid-session at the mark, finishes past it
  const Pid untouched = 5;   // never acts past the mark
  const MutexFactory factory =
      AlgorithmRegistry::instance().mutex("lamport-fast").factory;
  const Build build = mutex_builder(factory, n, 1, {});

  Sim live;
  build(live);
  live.mark_rewind_base();
  live.step(finisher);
  live.step(finisher);
  live.ensure_started(started);
  Sim::RewindMark mark;
  live.capture_mark(mark);
  const std::size_t prefix_len = live.schedule_log().size();
  for (int guard = 0; live.runnable(finisher) && guard < 1'000; ++guard) {
    live.step(finisher);
  }
  live.step(fresh);
  live.step(fresh);
  live.step(started);
  ASSERT_EQ(live.status(finisher), ProcStatus::Done);
  ASSERT_EQ(owed_units(live, prefix_len, started), 1u);
  ASSERT_EQ(owed_units(live, prefix_len, finisher), 3u);

  const std::unique_ptr<Sim> oracle =
      scratch_replay(build, log_prefix(live, prefix_len));
  live.rewind_to_mark(mark);
  EXPECT_EQ(live.value_replayed_units(), 0u);
  ASSERT_EQ(live.schedule_log().size(), prefix_len);
  EXPECT_EQ(live.runnable_pids().size(), static_cast<std::size_t>(n));
  expect_same_state(live, *oracle);

  EXPECT_EQ(step_both(live, *oracle, untouched), 0u);
  EXPECT_EQ(step_both(live, *oracle, fresh), 0u);
  EXPECT_EQ(step_both(live, *oracle, started), 1u);
  EXPECT_EQ(step_both(live, *oracle, started), 0u);
  expect_same_state(live, *oracle);

  // The finisher never stepped: the next restore leaves it owing the same
  // units, still unpaid.
  live.rewind_to_mark(mark);
  EXPECT_EQ(live.value_replayed_units(), 1u);
  const std::unique_ptr<Sim> again =
      scratch_replay(build, log_prefix(live, prefix_len));
  expect_same_state(live, *again);
  EXPECT_EQ(step_both(live, *again, finisher), 3u);
  continue_and_compare(live, *again, 23, 400);
}

TEST(Rewind, StaleProcessReplaysAgainstTheShallowestRestore) {
  // Restore a deep mark, then a shallower one without stepping in between,
  // then step every process: each must replay exactly what the shallow
  // mark owes it, and the result must equal a freshly built Sim stepped
  // live — state, next_seq() and each unit's last_step_summary().
  for (const MutexAlgorithmEntry* e :
       AlgorithmRegistry::instance().mutex_for_n(3)) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(e->info.name);
      const Build build = mutex_builder(e->factory, 3, 2, {});
      Sim live;
      build(live);
      live.mark_rewind_base();
      RandomScheduler rnd(seed);
      drive(live, rnd, RunLimits{10});
      Sim::RewindMark shallow;
      live.capture_mark(shallow);
      drive(live, rnd, RunLimits{15});
      Sim::RewindMark deep;
      live.capture_mark(deep);
      drive(live, rnd, RunLimits{15});

      std::uint64_t owed = 0;
      std::vector<bool> acted(3, false);
      for (std::size_t i = shallow.prefix_len; i < live.schedule_log().size();
           ++i) {
        acted[static_cast<std::size_t>(live.schedule_log()[i].pid)] = true;
      }
      for (Pid p = 0; p < 3; ++p) {
        owed += acted[static_cast<std::size_t>(p)]
                    ? owed_units(live, shallow.prefix_len, p)
                    : 0;
      }
      live.rewind_to_mark(deep);
      live.rewind_to_mark(shallow);
      EXPECT_EQ(live.value_replayed_units(), 0u);
      const std::unique_ptr<Sim> oracle =
          scratch_replay(build, log_prefix(live, shallow.prefix_len));
      expect_same_state(live, *oracle);
      for (Pid p = 0; p < 3; ++p) {
        if (!live.runnable(p)) {
          continue;
        }
        live.step(p);
        oracle->step(p);
        const StepSummary& a = live.last_step_summary();
        const StepSummary& b = oracle->last_step_summary();
        EXPECT_EQ(a.pid, b.pid);
        EXPECT_EQ(a.accessed, b.accessed);
        EXPECT_EQ(a.reg, b.reg);
        EXPECT_EQ(a.wrote, b.wrote);
        EXPECT_EQ(a.section_changed, b.section_changed);
        EXPECT_EQ(a.crashed, b.crashed);
        EXPECT_EQ(a.started, b.started);
        EXPECT_EQ(live.next_seq(), oracle->next_seq());
      }
      EXPECT_EQ(live.value_replayed_units(), owed);
      expect_same_state(live, *oracle);
      continue_and_compare(live, *oracle, seed + 31, 40);
    }
  }
}

TEST(Rewind, ReplayThatMissesTheMarkThrowsFromTheResyncGuard) {
  // The resync guard: a restored process whose replay does not re-post
  // exactly the mark's pending access throws std::logic_error from its
  // next step, not from the restore. Two ways to get there: a body that
  // keeps run-time state outside its frame and registers (so the replay
  // of its value tape takes another path), and a mark whose recorded
  // pending access was corrupted.
  auto calls = std::make_shared<int>(0);
  Sim sim;
  const RegId a = sim.memory().add_register("a", 8);
  const RegId b = sim.memory().add_register("b", 8);
  const Pid p = sim.spawn("outside-state", [calls, a, b](ProcessContext& ctx)
                                               -> Task<void> {
    ++*calls;  // counts body starts: state no frame restart resets
    co_await ctx.read(a);
    co_await ctx.write(*calls == 1 ? a : b, 1);
  });
  sim.mark_rewind_base();
  sim.step(p);  // start + read a
  Sim::RewindMark mark;
  sim.capture_mark(mark);
  sim.step(p);  // write a
  sim.rewind_to_mark(mark);
  EXPECT_THROW(sim.step(p), std::logic_error);

  // A corrupted mark: the replay itself is faithful, the record is not.
  const MutexFactory factory =
      AlgorithmRegistry::instance().mutex("peterson-2p").factory;
  const Build build = mutex_builder(factory, 2, 1, {});
  Sim live;
  build(live);
  live.mark_rewind_base();
  live.step(0);
  live.step(0);
  Sim::RewindMark bad;
  live.capture_mark(bad);
  live.step(0);
  ASSERT_TRUE(bad.procs[0].pending.has_value());
  bad.procs[0].pending->to_write ^= 1;
  live.rewind_to_mark(bad);
  EXPECT_THROW(live.step(0), std::logic_error);
}

/// Two branches diverging from one restore point: run a prefix, capture a
/// mark, and for each branch restore to the mark, run on under the
/// branch's own scheduler, and differential-test the whole run against a
/// scratch replay of its schedule log.
void branches_from_one_mark(const MutexFactory& factory, int n, int sessions,
                            const std::vector<CrashPlan>& crashes,
                            std::uint64_t prefix_seed) {
  const Build build = mutex_builder(factory, n, sessions, crashes);

  Sim live;
  build(live);
  live.mark_rewind_base();
  RandomScheduler prefix_rnd(prefix_seed);
  drive(live, prefix_rnd, RunLimits{40});
  Sim::RewindMark mark;
  live.capture_mark(mark);

  for (const std::uint64_t branch_seed :
       {prefix_seed + 100, prefix_seed + 200}) {
    live.rewind_to_mark(mark);
    RandomScheduler branch_rnd(branch_seed);
    drive(live, branch_rnd, RunLimits{60});

    const std::unique_ptr<Sim> oracle =
        scratch_replay(build, live.schedule_log());
    expect_same_state(live, *oracle);
  }
}

TEST(Rewind, BranchesFromOneMarkMatchScratchReplay) {
  const MutexFactory factory =
      AlgorithmRegistry::instance().mutex("thm3-exact-l2").factory;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    branches_from_one_mark(factory, 4, 2, {}, seed);
  }
}

TEST(Rewind, BranchesFromOneMarkUnderCrashInjection) {
  const MutexFactory factory =
      AlgorithmRegistry::instance().mutex("lamport-fast").factory;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    branches_from_one_mark(factory, 4, 2, {{0, seed % 5}, {2, 1 + seed % 3}},
                           seed);
  }
}

TEST(Rewind, BranchesFromOneMarkWithMultiGrainFieldWrites) {
  // lamport-packed stores several logical registers in one word via
  // write_field: sub-word stores must fingerprint and restore exactly.
  const MutexFactory factory =
      AlgorithmRegistry::instance().mutex("lamport-packed").factory;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    branches_from_one_mark(factory, 4, 2, {{1, 2 + seed % 4}}, seed);
  }
}

TEST(Rewind, SinksSeeOnlyEventsAfterTheRestore) {
  const MutexFactory factory =
      AlgorithmRegistry::instance().mutex("peterson-2p").factory;
  const Build build = mutex_builder(factory, 2, 1, {});
  Sim live;
  build(live);
  live.mark_rewind_base();
  RandomScheduler rnd(3);
  drive(live, rnd, RunLimits{8});
  Sim::RewindMark mark;
  live.capture_mark(mark);
  const Seq at_mark = live.next_seq();
  const std::size_t prefix_len = live.schedule_log().size();
  RandomScheduler more(5);
  drive(live, more, RunLimits{6});
  ASSERT_GT(live.next_seq(), at_mark);

  // Attached before the restore: the replay must not reach it, and the
  // materialized trace starts empty.
  TraceRecorder post;
  live.add_sink(post);
  live.rewind_to_mark(mark);
  EXPECT_TRUE(post.trace().empty());
  EXPECT_TRUE(live.trace().empty());
  EXPECT_EQ(live.next_seq(), at_mark);

  // rewind_to re-steps the prefix through step(): just as quiet.
  live.rewind_to(prefix_len);
  EXPECT_TRUE(post.trace().empty());
  EXPECT_TRUE(live.trace().empty());
  EXPECT_EQ(live.next_seq(), at_mark);

  // Onward, the sink sees exactly the post-restore events, numbered
  // continuously after the prefix.
  RandomScheduler cont(4);
  drive(live, cont, RunLimits{5});
  ASSERT_FALSE(post.trace().empty());
  EXPECT_EQ(post.trace().events().front().seq, at_mark);
  EXPECT_EQ(post.trace().events().size(), live.trace().events().size());
  live.remove_sink(post);
}

/// Everything a unit published, in a comparable form.
using EventKey = std::tuple<Seq, Pid, int, Value, Value, Value, bool, int,
                            int, int, int, int>;

EventKey event_key(const TraceEvent& ev) {
  const Access& a = ev.access;
  return {ev.seq,
          ev.pid,
          static_cast<int>(ev.kind),
          a.before,
          a.after,
          a.returned.value_or(~Value{0}),
          a.returned.has_value(),
          static_cast<int>(a.reg),
          static_cast<int>(a.bit_op),
          static_cast<int>(a.kind),
          static_cast<int>(ev.from),
          static_cast<int>(ev.to)};
}

/// Collects the events of the current unit.
struct UnitEvents : EventSink {
  std::vector<EventKey> events;
  void on_event(const TraceEvent& ev) override {
    events.push_back(event_key(ev));
  }
};

void expect_same_unit(const Sim& a, const Sim& b) {
  const StepSummary& x = a.last_step_summary();
  const StepSummary& y = b.last_step_summary();
  EXPECT_EQ(x.pid, y.pid);
  EXPECT_EQ(x.accessed, y.accessed);
  EXPECT_EQ(x.reg, y.reg);
  EXPECT_EQ(x.wrote, y.wrote);
  EXPECT_EQ(x.section_changed, y.section_changed);
  EXPECT_EQ(x.crashed, y.crashed);
  EXPECT_EQ(x.started, y.started);
  for (Pid p = 0; p < a.process_count(); ++p) {
    EXPECT_EQ(a.pending(p), b.pending(p)) << "pid " << p;
  }
  expect_same_state(a, b);
}

/// Random schedules with random capture_mark / rewind_to_mark points (and
/// an occasional rewind_to) on one rewindable Sim, against a
/// non-rewindable Sim re-stepped from scratch after every restore and
/// stepped alongside: after every unit, the unit's events, its summary,
/// and every status, section, output, pending access and digest must
/// agree, as must the memory and state fingerprints. Returns the steps
/// the table served.
std::uint64_t memo_differential(const Build& build, std::uint64_t seed,
                                int actions) {
  std::mt19937_64 rng(seed);
  Sim live;
  build(live);
  live.set_trace_recording(false);
  UnitEvents live_events;
  live.add_sink(live_events);
  live.mark_rewind_base();
  UnitEvents oracle_events;
  std::unique_ptr<Sim> oracle;
  const auto rebuild_oracle = [&] {
    if (oracle) {
      oracle->remove_sink(oracle_events);
    }
    oracle = scratch_replay(build, live.schedule_log());
    oracle->add_sink(oracle_events);
  };
  rebuild_oracle();
  std::vector<Sim::RewindMark> marks;
  for (int i = 0; i < actions && !testing::Test::HasFailure(); ++i) {
    const std::uint64_t roll = rng() % 100;
    if (roll < 10) {
      marks.emplace_back();
      live.capture_mark(marks.back());
      continue;
    }
    if ((roll < 25 || !live.any_runnable()) && !marks.empty()) {
      const std::size_t k = rng() % marks.size();
      live.rewind_to_mark(marks[k]);
      marks.resize(k + 1);  // deeper marks are off the current run
      rebuild_oracle();
      expect_same_state(live, *oracle);
      continue;
    }
    if (roll < 28 || !live.any_runnable()) {
      const std::size_t len = rng() % (live.schedule_log().size() + 1);
      live.rewind_to(len);
      while (!marks.empty() && marks.back().prefix_len > len) {
        marks.pop_back();
      }
      rebuild_oracle();
      expect_same_state(live, *oracle);
      continue;
    }
    const std::vector<Pid>& ready = live.runnable_pids();
    const Pid pid = ready[rng() % ready.size()];
    live_events.events.clear();
    oracle_events.events.clear();
    if (roll < 33 && live.status(pid) == ProcStatus::NotStarted) {
      live.ensure_started(pid);
      oracle->ensure_started(pid);
    } else {
      live.step(pid);
      oracle->step(pid);
    }
    EXPECT_EQ(live_events.events, oracle_events.events) << "unit " << i;
    expect_same_unit(live, *oracle);
  }
  live.remove_sink(live_events);
  return live.transition_stats().served;
}

TEST(Rewind, MemoizedStepsMatchAFreshSim) {
  const AlgorithmRegistry& reg = AlgorithmRegistry::instance();
  std::uint64_t served = 0;
  for (int n = 2; n <= 6; ++n) {
    SCOPED_TRACE("n=" + std::to_string(n));
    // Crash plans: a process that stops early, and one that stops late.
    const std::vector<CrashPlan> crashes = {{0, 2}, {n - 1, 7}};
    const auto seed = static_cast<std::uint64_t>(n);
    for (const MutexAlgorithmEntry* e : reg.mutex_for_n(n)) {
      SCOPED_TRACE(e->info.name);
      served += memo_differential(mutex_builder(e->factory, n, 2, {}), seed,
                                  300);
      served += memo_differential(mutex_builder(e->factory, n, 2, crashes),
                                  seed + 1, 300);
    }
    const bool pow2 = (n & (n - 1)) == 0;
    for (const DetectorAlgorithmEntry* e : reg.detector_algorithms()) {
      if ((e->info.max_n != 0 && n > e->info.max_n) ||
          (e->info.pow2_n_only && !pow2)) {
        continue;
      }
      SCOPED_TRACE(e->info.name);
      auto keep = std::make_shared<std::vector<std::unique_ptr<Detector>>>();
      const DetectorFactory& make = e->factory;
      served += memo_differential(
          [keep, make, n, crashes](Sim& sim) {
            keep->push_back(setup_detection(sim, make, n));
            sim.crash_after(crashes[0].pid, crashes[0].after_accesses);
          },
          seed, 200);
    }
    for (const NamingAlgorithmEntry* e : reg.naming_algorithms()) {
      if ((e->info.max_n != 0 && n > e->info.max_n) ||
          (e->info.pow2_n_only && !pow2)) {
        continue;
      }
      SCOPED_TRACE(e->info.name);
      auto keep =
          std::make_shared<std::vector<std::unique_ptr<NamingAlgorithm>>>();
      const NamingFactory& make = e->factory;
      served += memo_differential(
          [keep, make, n, crashes](Sim& sim) {
            keep->push_back(setup_naming(sim, make, n));
            sim.crash_after(crashes[1].pid, crashes[1].after_accesses);
          },
          seed, 200);
    }
  }
  // The table served most of these steps, so the comparison covered it.
  EXPECT_GT(served, 10'000u);
}

TEST(Rewind, BodyStateOutsideTheFrameIsCaughtAtARecordedTransition) {
  // The body picks its first register by how often it was started. Its
  // first replay follows the live run and records it; its second replay
  // takes another first access than the recorded start. The end state
  // alone would not show it — the second replay still ends at the node's
  // pending access — so only the per-transition check catches it.
  auto starts = std::make_shared<int>(0);
  Sim sim;
  const RegId a = sim.memory().add_register("a", 8);
  const RegId b = sim.memory().add_register("b", 8);
  const Pid p = sim.spawn("outside-state", [starts, a, b](ProcessContext& ctx)
                                               -> Task<void> {
    ++*starts;
    co_await ctx.read(*starts <= 2 ? a : b);
    co_await ctx.read(a);
    co_await ctx.read(a);
  });
  const Pid q = sim.spawn("writer", [a](ProcessContext& ctx) -> Task<void> {
    co_await ctx.write(a, 1);
  });
  sim.mark_rewind_base();
  sim.step(p);  // start, read a = 0
  Sim::RewindMark mark;
  sim.capture_mark(mark);
  sim.step(p);  // read a = 0
  sim.rewind_to_mark(mark);
  sim.step(p);  // replays (start 2) along the live run, then reads a = 0
  EXPECT_EQ(sim.value_replayed_units(), 2u);
  sim.rewind_to_mark(mark);
  sim.step(q);  // a = 1: p's next read misses the table
  EXPECT_THROW(sim.step(p), std::logic_error);
}

TEST(Rewind, CfSoloProtocolRecordsNothing) {
  // The contention-free blocks' protocol (analysis/study.cpp solo_block):
  // one Sim, each pid run solo from rewind_to(0). No restore ever leaves a
  // started process behind its frame, so nothing joins the table: every
  // unit resumes the live body, nothing is recorded or replayed.
  const int n = 64;
  Sim sim;
  sim.set_trace_recording(false);
  const auto alg = setup_mutex(
      sim, AlgorithmRegistry::instance().mutex("lamport-fast").factory, n, 1);
  sim.mark_rewind_base();
  for (Pid pid = 0; pid < n; ++pid) {
    if (pid != 0) {
      sim.rewind_to(0);
    }
    SoloScheduler solo(pid);
    ASSERT_NE(drive(sim, solo), RunOutcome::BudgetExhausted);
  }
  const Sim::TransitionStats t = sim.transition_stats();
  EXPECT_EQ(t.served, 0u);
  EXPECT_EQ(t.recorded, 0u);
  EXPECT_EQ(t.nodes, 0u);
  EXPECT_GT(t.resumed, 0u);
  EXPECT_EQ(sim.value_replayed_units(), 0u);
}

TEST(Rewind, ExplorerServesNearlyEveryStepFromTheTable) {
  // A mutex search on peterson-tree n=4 to depth 12, unreduced and under
  // source-DPOR: the table serves over 95% of the engines' steps (96-97%
  // here). What it does not serve is each work item relearning its table:
  // the item's prefix and first descent run before any process joins,
  // and each transition new to the item misses once. Every engine Sim's
  // table counters are read as the engine releases the setup's owner
  // handle, which it does before it destroys the Sim.
  struct Totals {
    std::atomic<std::uint64_t> served{0};
    std::atomic<std::uint64_t> resumed{0};
    std::atomic<int> sims{0};
  };
  struct Probe {
    std::shared_ptr<MutexAlgorithm> alg;
    const Sim* sim;
    Totals* totals;
    ~Probe() {
      const Sim::TransitionStats t = sim->transition_stats();
      totals->served += t.served;
      totals->resumed += t.resumed;
      ++totals->sims;
    }
  };
  Totals totals;
  const MutexFactory factory =
      AlgorithmRegistry::instance().mutex("peterson-tree").factory;
  Explorer::Config cfg;
  cfg.nprocs = 4;
  cfg.strategy = SearchStrategy::Exhaustive;
  cfg.limits.max_depth = 12;
  cfg.objective.fields = {MeasureField::CleanEntry, MeasureField::Exit};
  cfg.setup = [&factory, &totals](Sim& sim) -> std::shared_ptr<void> {
    return std::make_shared<Probe>(
        Probe{setup_mutex(sim, factory, 4, 1), &sim, &totals});
  };
  for (const ReductionPolicy reduction :
       {ReductionPolicy::Off, ReductionPolicy::SourceDpor}) {
    totals.served = 0;
    totals.resumed = 0;
    totals.sims = 0;
    cfg.limits.reduction = reduction;
    ExperimentRunner pool(2);
    const Explorer::Result r = Explorer(cfg).run(&pool);
    ASSERT_GT(totals.sims.load(), 1);
    const double steps =
        static_cast<double>(totals.served + totals.resumed);
    ASSERT_GT(steps, static_cast<double>(r.stats.restores));
    EXPECT_GE(static_cast<double>(totals.served) / steps, 0.95)
        << "served " << totals.served << " of " << steps;
  }
}

}  // namespace
}  // namespace cfc
