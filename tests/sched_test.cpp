#include "sched/sched.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <vector>

namespace cfc {
namespace {

/// Each process increments a shared counter `k` times (read + write per
/// increment, non-atomic on purpose).
Task<void> incrementer(ProcessContext& ctx, RegId r, int k) {
  ctx.set_section(Section::Working);
  for (int i = 0; i < k; ++i) {
    const Value v = co_await ctx.read(r);
    co_await ctx.write(r, v + 1);
  }
  ctx.set_section(Section::Done);
}

Sim::BodyFactory make_incrementer(RegId r, int k) {
  return [r, k](ProcessContext& ctx) { return incrementer(ctx, r, k); };
}

TEST(Sched, SoloSchedulerRunsOnlyTargetProcess) {
  Sim sim;
  const RegId r = sim.memory().add_register("r", 16);
  const Pid a = sim.spawn("a", make_incrementer(r, 3));
  const Pid b = sim.spawn("b", make_incrementer(r, 3));
  SoloScheduler solo(a);
  const RunOutcome out = drive(sim, solo);
  EXPECT_EQ(out, RunOutcome::SchedulerStopped);  // b still runnable
  EXPECT_EQ(sim.status(a), ProcStatus::Done);
  EXPECT_EQ(sim.status(b), ProcStatus::NotStarted);
  EXPECT_EQ(sim.memory().peek(r), 3u);  // only a's increments
}

TEST(Sched, SequentialSchedulerRunsEachToCompletionInOrder) {
  Sim sim;
  const RegId r = sim.memory().add_register("r", 16);
  const Pid a = sim.spawn("a", make_incrementer(r, 2));
  const Pid b = sim.spawn("b", make_incrementer(r, 2));
  const Pid c = sim.spawn("c", make_incrementer(r, 2));
  SequentialScheduler seq({c, a, b});
  EXPECT_EQ(drive(sim, seq), RunOutcome::AllDone);
  // No interleaving: all six increments landed.
  EXPECT_EQ(sim.memory().peek(r), 6u);
  // c's accesses all precede a's, which precede b's.
  const auto evs = sim.trace().accesses();
  std::vector<Pid> order;
  for (const Access& acc : evs) {
    if (order.empty() || order.back() != acc.pid) {
      order.push_back(acc.pid);
    }
  }
  EXPECT_EQ(order, (std::vector<Pid>{c, a, b}));
}

TEST(Sched, RoundRobinInterleavesLosesIncrements) {
  Sim sim;
  const RegId r = sim.memory().add_register("r", 16);
  sim.spawn("a", make_incrementer(r, 4));
  sim.spawn("b", make_incrementer(r, 4));
  RoundRobinScheduler rr;
  EXPECT_EQ(drive(sim, rr), RunOutcome::AllDone);
  // Perfect read/write interleaving loses updates: the counter ends below 8.
  EXPECT_LT(sim.memory().peek(r), 8u);
  EXPECT_GE(sim.memory().peek(r), 4u);
}

TEST(Sched, RandomSchedulerIsDeterministicPerSeed) {
  auto final_value = [](std::uint64_t seed) {
    Sim sim;
    const RegId r = sim.memory().add_register("r", 16);
    sim.spawn("a", make_incrementer(r, 4));
    sim.spawn("b", make_incrementer(r, 4));
    RandomScheduler rnd(seed);
    drive(sim, rnd);
    return sim.memory().peek(r);
  };
  EXPECT_EQ(final_value(7), final_value(7));
  EXPECT_EQ(final_value(123), final_value(123));
}

TEST(Sched, ScriptedSchedulerFollowsScript) {
  Sim sim;
  const RegId r = sim.memory().add_register("r", 16);
  const Pid a = sim.spawn("a", make_incrementer(r, 2));
  const Pid b = sim.spawn("b", make_incrementer(r, 2));
  // a reads, b reads (both see 0), a writes 1, b writes 1 -> lost update.
  ScriptedScheduler script({a, b, a, b});
  EXPECT_EQ(drive(sim, script), RunOutcome::SchedulerStopped);
  EXPECT_EQ(sim.memory().peek(r), 1u);
}

TEST(Sched, ScriptSkipsNonRunnableEntries) {
  Sim sim;
  const RegId r = sim.memory().add_register("r", 16);
  const Pid a = sim.spawn("a", make_incrementer(r, 1));
  const Pid b = sim.spawn("b", make_incrementer(r, 1));
  // a finishes after 2 accesses; further a-entries are skipped. Everyone
  // completes, so the drive reports AllDone before the script runs dry.
  ScriptedScheduler script({a, a, a, a, b, b});
  EXPECT_EQ(drive(sim, script), RunOutcome::AllDone);
  EXPECT_EQ(sim.status(a), ProcStatus::Done);
  EXPECT_EQ(sim.status(b), ProcStatus::Done);
}

TEST(Sched, BudgetExhaustionOnSpinLoop) {
  Sim sim;
  const RegId r = sim.memory().add_bit("flag");
  const Pid a = sim.spawn("spin", [r](ProcessContext& ctx) -> Task<void> {
    for (;;) {
      const Value v = co_await ctx.read(r);
      if (v != 0) {
        break;
      }
    }
  });
  SoloScheduler solo(a);
  EXPECT_EQ(drive(sim, solo, RunLimits{100}), RunOutcome::BudgetExhausted);
  EXPECT_EQ(sim.access_count(a), 100u);
}

TEST(Sched, StepUntilPredicate) {
  Sim sim;
  const RegId r = sim.memory().add_register("r", 16);
  const Pid a = sim.spawn("a", make_incrementer(r, 10));
  const std::uint64_t steps = step_until(
      sim, a, [&](const Sim& s) { return s.memory().peek(r) >= 3; });
  EXPECT_EQ(sim.memory().peek(r), 3u);
  EXPECT_EQ(steps, 6u);  // 3 increments, 2 accesses each
}

TEST(Sched, StepNCountsAccesses) {
  Sim sim;
  const RegId r = sim.memory().add_register("r", 16);
  const Pid a = sim.spawn("a", make_incrementer(r, 10));
  EXPECT_EQ(step_n(sim, a, 5), 5u);
  EXPECT_EQ(sim.access_count(a), 5u);
}

TEST(Sched, RunToCompletionStopsAtTermination) {
  Sim sim;
  const RegId r = sim.memory().add_register("r", 16);
  const Pid a = sim.spawn("a", make_incrementer(r, 2));
  EXPECT_EQ(run_to_completion(sim, a), 4u);
  EXPECT_EQ(sim.status(a), ProcStatus::Done);
}

TEST(Sched, RoundRobinSkipsCrashedProcesses) {
  Sim sim;
  const RegId r = sim.memory().add_register("r", 16);
  const Pid a = sim.spawn("a", make_incrementer(r, 3));
  const Pid b = sim.spawn("b", make_incrementer(r, 3));
  sim.crash_after(a, 2);
  RoundRobinScheduler rr;
  EXPECT_EQ(drive(sim, rr), RunOutcome::AllDone);
  EXPECT_EQ(sim.status(a), ProcStatus::Crashed);
  EXPECT_EQ(sim.status(b), ProcStatus::Done);
}

// --- RandomScheduler indexes Sim::runnable_pids(): same picks as the
// scan-every-pid scheduler it replaced, and the list stays the status
// scan through finishes, crashes and both rewinds. ---

/// The RandomScheduler pick as it was before Sim kept a runnable list:
/// collect the runnable pids by scanning all n, draw one uniformly.
class ScanRandomScheduler final : public Scheduler {
 public:
  explicit ScanRandomScheduler(std::uint64_t seed) : rng_(seed) {}
  std::optional<Pid> next(const Sim& sim) override {
    std::vector<Pid> ready;
    for (Pid p = 0; p < sim.process_count(); ++p) {
      if (sim.runnable(p)) {
        ready.push_back(p);
      }
    }
    if (ready.empty()) {
      return std::nullopt;
    }
    std::uniform_int_distribution<std::size_t> pick(0, ready.size() - 1);
    return ready[pick(rng_)];
  }

 private:
  std::mt19937_64 rng_;
};

void expect_runnable_list_is_status_scan(const Sim& sim) {
  std::vector<Pid> scan;
  for (Pid p = 0; p < sim.process_count(); ++p) {
    const ProcStatus st = sim.status(p);
    if (st == ProcStatus::NotStarted || st == ProcStatus::Runnable) {
      scan.push_back(p);
    }
  }
  EXPECT_EQ(sim.runnable_pids(), scan);
  EXPECT_EQ(sim.any_runnable(), !scan.empty());
}

/// n incrementers of uneven length; every fifth process crashes early.
void spawn_uneven(Sim& sim, int n) {
  const RegId r = sim.memory().add_register("r", 16);
  for (Pid p = 0; p < n; ++p) {
    std::string label = "p";
    label += std::to_string(p);
    sim.spawn(label, make_incrementer(r, 1 + p % 4));
    if (p % 5 == 2) {
      sim.crash_after(p, static_cast<std::uint64_t>(p % 3));
    }
  }
}

/// Steps `sim` with both schedulers' (identical) picks, at most
/// `max_picks` times or until they stop; returns the picks taken.
std::size_t step_both(Sim& sim, RandomScheduler& fast, ScanRandomScheduler& ref,
                      std::size_t max_picks) {
  std::size_t picks = 0;
  while (picks < max_picks) {
    expect_runnable_list_is_status_scan(sim);
    const std::optional<Pid> a = fast.next(sim);
    const std::optional<Pid> b = ref.next(sim);
    EXPECT_EQ(a, b) << "pick " << picks;
    if (!a.has_value() || a != b) {
      break;
    }
    sim.step(*a);
    ++picks;
  }
  expect_runnable_list_is_status_scan(sim);
  return picks;
}

constexpr std::size_t kUnbounded = ~std::size_t{0};

TEST(Sched, RandomPicksMatchScanningEveryPid) {
  for (const int n : {2, 17, 256}) {
    for (const std::uint64_t seed : {1u, 7u, 4242u}) {
      Sim sim;
      spawn_uneven(sim, n);
      expect_runnable_list_is_status_scan(sim);
      RandomScheduler fast(seed);
      ScanRandomScheduler ref(seed);
      EXPECT_GT(step_both(sim, fast, ref, kUnbounded), 0u);
      EXPECT_FALSE(sim.any_runnable()) << "n=" << n << " seed=" << seed;
      if (n > 2) {
        EXPECT_EQ(sim.status(2), ProcStatus::Crashed);
      }
    }
  }
}

TEST(Sched, RandomPicksMatchAcrossRewinds) {
  for (const int n : {2, 17, 256}) {
    const std::uint64_t seed = 99;
    Sim sim;
    spawn_uneven(sim, n);
    sim.mark_rewind_base();
    RandomScheduler fast(seed);
    ScanRandomScheduler ref(seed);
    const auto third = static_cast<std::size_t>(n) * 2;
    step_both(sim, fast, ref, third);
    Sim::RewindMark mark;
    sim.capture_mark(mark);
    step_both(sim, fast, ref, third);  // some finish or crash past the mark
    sim.rewind_to_mark(mark);
    expect_runnable_list_is_status_scan(sim);
    step_both(sim, fast, ref, kUnbounded);
    EXPECT_FALSE(sim.any_runnable());

    sim.rewind_to(0);
    expect_runnable_list_is_status_scan(sim);
    EXPECT_EQ(sim.runnable_pids().size(), static_cast<std::size_t>(n));
    step_both(sim, fast, ref, kUnbounded);
    EXPECT_FALSE(sim.any_runnable());

    // A partial replay: the rewind re-retires what finished in the prefix.
    sim.rewind_to(sim.schedule_log().size() / 2);
    expect_runnable_list_is_status_scan(sim);
    step_both(sim, fast, ref, kUnbounded);
    EXPECT_FALSE(sim.any_runnable());
  }
}

}  // namespace
}  // namespace cfc
