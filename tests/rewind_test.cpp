// Restore fidelity: Sim::rewind_to and Sim::rewind_to_mark must reposition
// the LIVE simulation at any prefix of its own schedule log
// indistinguishably from a freshly built simulation stepped live along the
// same units — across every registry algorithm, including crash injection,
// multi-grain field writes and branches diverging from one restore point —
// with frame recreation served entirely from the arena pool after warm-up,
// and the Explorer's mark restores must build zero Sims per restore.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "analysis/experiment.h"
#include "core/algorithm_registry.h"
#include "core/state_fingerprint.h"
#include "mutex/mutex_algorithm.h"
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

}  // namespace
}  // namespace cfc
