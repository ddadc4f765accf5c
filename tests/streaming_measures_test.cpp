// Differential test of the streaming measurement sink: a MeasureAccumulator
// attached to a simulation must report exactly what the offline trace-based
// functions in core/measures.h compute over the recorded trace — totals,
// contention-free sessions, clean entry windows, and exit windows — on
// randomized schedules across algorithm families, with and without crash
// injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/algorithm_registry.h"
#include "core/measures.h"
#include "core/streaming_measures.h"
#include "mutex/mutex_algorithm.h"
#include "naming/naming_algorithm.h"
#include "sched/sched.h"

namespace cfc {
namespace {

void expect_reports_equal(const ComplexityReport& streaming,
                          const ComplexityReport& traced,
                          const std::string& what) {
  EXPECT_EQ(streaming.steps, traced.steps) << what;
  EXPECT_EQ(streaming.registers, traced.registers) << what;
  EXPECT_EQ(streaming.read_steps, traced.read_steps) << what;
  EXPECT_EQ(streaming.write_steps, traced.write_steps) << what;
  EXPECT_EQ(streaming.read_registers, traced.read_registers) << what;
  EXPECT_EQ(streaming.write_registers, traced.write_registers) << what;
  EXPECT_EQ(streaming.atomicity, traced.atomicity) << what;
}

/// Runs the sim (trace recording on AND accumulator attached) and compares
/// every streaming quantity to the trace-based reference, per pid.
void compare_all_measures(Sim& sim, const MeasureAccumulator& acc, int n,
                          const std::string& what) {
  const Trace& trace = sim.trace();
  for (Pid pid = 0; pid < n; ++pid) {
    const std::string who = what + " pid=" + std::to_string(pid);
    expect_reports_equal(acc.total(pid), measure_all(trace, pid),
                         who + " total");
    const auto cf_sessions = contention_free_sessions(trace, pid, n);
    expect_reports_equal(acc.contention_free_session_max(pid),
                         max_over_windows(trace, pid, cf_sessions),
                         who + " cf-session");
    EXPECT_EQ(acc.contention_free_session_count(pid),
              static_cast<int>(cf_sessions.size()))
        << who;
    expect_reports_equal(
        acc.clean_entry_max(pid),
        max_over_windows(trace, pid, clean_entry_windows(trace, pid, n)),
        who + " clean-entry");
    expect_reports_equal(
        acc.exit_max(pid),
        max_over_windows(trace, pid, exit_windows(trace, pid)),
        who + " exit");
  }
}

/// True iff one process accessed registers on both sides of the
/// RegIdSet mask/spill boundary during the run.
bool some_pid_straddles_the_spill(const Trace& trace, int n) {
  std::vector<int> seen(static_cast<std::size_t>(n), 0);
  for (const TraceEvent& ev : trace.events()) {
    if (ev.kind == TraceEvent::Kind::Access) {
      seen[static_cast<std::size_t>(ev.pid)] |=
          ev.access.reg < RegIdSet::kInlineIds ? 1 : 2;
    }
  }
  return std::find(seen.begin(), seen.end(), 3) != seen.end();
}

TEST(StreamingMeasures, MatchesTraceOnRandomMutexSchedules) {
  const auto& registry = AlgorithmRegistry::instance();
  const std::vector<std::string> algorithms = {
      "lamport-fast", "thm3-exact-l2", "kessels-tree", "peterson-tree"};
  for (const std::string& name : algorithms) {
    const MutexAlgorithmEntry& entry = registry.mutex(name);
    for (const int n : {2, 4, 8}) {
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        Sim sim;
        MeasureAccumulator acc(n);
        sim.add_sink(acc);
        auto alg = setup_mutex(sim, entry.factory, n, /*sessions=*/2);
        RandomScheduler rnd(seed);
        drive(sim, rnd, RunLimits{100'000});
        compare_all_measures(
            sim, acc, n,
            name + " n=" + std::to_string(n) + " seed=" +
                std::to_string(seed));
      }
    }
  }
}

TEST(StreamingMeasures, MatchesTraceWhenRegisterIdsSpill) {
  // Register ids from RegIdSet::kInlineIds on live in the accumulator's
  // spill vectors; at these n the tree locks' ids straddle that boundary,
  // so every set mixes mask bits and spilled ids.
  const auto& registry = AlgorithmRegistry::instance();
  for (const std::string name : {"peterson-tree", "kessels-tree"}) {
    const MutexAlgorithmEntry& entry = registry.mutex(name);
    for (const int n : {32, 64}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Sim sim;
        MeasureAccumulator acc(n);
        sim.add_sink(acc);
        auto alg = setup_mutex(sim, entry.factory, n, /*sessions=*/2);
        ASSERT_GT(sim.memory().size(), RegIdSet::kInlineIds) << name;
        RandomScheduler rnd(seed);
        drive(sim, rnd, RunLimits{20'000});
        EXPECT_TRUE(some_pid_straddles_the_spill(sim.trace(), n)) << name;
        compare_all_measures(
            sim, acc, n,
            name + " n=" + std::to_string(n) + " seed=" +
                std::to_string(seed));
      }
    }
  }
}

TEST(StreamingMeasures, CopiesAreIndependentAcrossTheSpill) {
  // Two simulations run the same schedule prefix; at the split the
  // accumulator is copied onto the second one and the two runs continue
  // under different schedules. Each copy must keep matching its own
  // trace: the copy owns its spill vectors, so neither sees the other's
  // later ids.
  const MutexAlgorithmEntry& entry =
      AlgorithmRegistry::instance().mutex("peterson-tree");
  const int n = 64;
  for (const std::uint64_t prefix : {300u, 3'000u}) {
    Sim a;
    Sim b;
    MeasureAccumulator acc_a(n);
    a.add_sink(acc_a);
    auto alg_a = setup_mutex(a, entry.factory, n, /*sessions=*/2);
    auto alg_b = setup_mutex(b, entry.factory, n, /*sessions=*/2);
    RandomScheduler pre_a(7);
    RandomScheduler pre_b(7);
    drive(a, pre_a, RunLimits{prefix});
    drive(b, pre_b, RunLimits{prefix});
    ASSERT_EQ(a.schedule_log().size(), b.schedule_log().size());

    MeasureAccumulator acc_b(1);
    acc_b = acc_a;  // copy-assign over a differently sized accumulator
    b.add_sink(acc_b);
    RandomScheduler post_a(11);
    RandomScheduler post_b(12);
    drive(a, post_a, RunLimits{20'000});
    drive(b, post_b, RunLimits{20'000});
    EXPECT_TRUE(some_pid_straddles_the_spill(b.trace(), n));
    const std::string what = "prefix=" + std::to_string(prefix);
    compare_all_measures(a, acc_a, n, what + " original");
    compare_all_measures(b, acc_b, n, what + " copy");
  }
}

TEST(StreamingMeasures, MatchesTraceOnSoloSessions) {
  const auto& registry = AlgorithmRegistry::instance();
  const int n = 8;
  for (const MutexAlgorithmEntry* entry : registry.mutex_for_n(n, "thm3")) {
    for (Pid pid = 0; pid < n; pid += 3) {
      Sim sim;
      MeasureAccumulator acc(n);
      sim.add_sink(acc);
      auto alg = setup_mutex(sim, entry->factory, n, /*sessions=*/1);
      SoloScheduler solo(pid);
      drive(sim, solo);
      compare_all_measures(sim, acc, n, entry->info.name + " solo");
      EXPECT_EQ(acc.contention_free_session_count(pid), 1)
          << entry->info.name;
    }
  }
}

TEST(StreamingMeasures, MatchesTraceOnNamingRunsWithCrashes) {
  const auto& registry = AlgorithmRegistry::instance();
  const int n = 8;
  for (const NamingAlgorithmEntry* entry : registry.naming_algorithms()) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      Sim sim;
      MeasureAccumulator acc(n);
      sim.add_sink(acc);
      auto alg = setup_naming(sim, entry->factory, n);
      // Crash two processes at different depths; wait-freedom keeps the
      // rest running, and measurement must agree either way.
      sim.crash_after(1, seed % 3);
      sim.crash_after(5, 1 + seed % 2);
      RandomScheduler rnd(seed);
      drive(sim, rnd, RunLimits{100'000});
      compare_all_measures(
          sim, acc, n, entry->info.name + " seed=" + std::to_string(seed));
    }
  }
}

TEST(StreamingMeasures, AgreesWithTraceWhenRecordingDisabled) {
  // Two identical runs driven by the same seed: one with the trace, one
  // streaming-only (recording off). The streaming run must see the same
  // events — sequence numbering does not depend on materialization.
  const MutexFactory factory =
      AlgorithmRegistry::instance().mutex("lamport-fast").factory;
  const int n = 4;

  Sim traced;
  auto alg1 = setup_mutex(traced, factory, n, 2);
  RandomScheduler rnd1(99);
  drive(traced, rnd1, RunLimits{50'000});

  Sim streaming;
  streaming.set_trace_recording(false);
  MeasureAccumulator acc(n);
  streaming.add_sink(acc);
  auto alg2 = setup_mutex(streaming, factory, n, 2);
  RandomScheduler rnd2(99);
  drive(streaming, rnd2, RunLimits{50'000});

  EXPECT_TRUE(streaming.trace().empty());
  EXPECT_EQ(streaming.next_seq(), traced.next_seq());
  for (Pid pid = 0; pid < n; ++pid) {
    expect_reports_equal(acc.total(pid), measure_all(traced.trace(), pid),
                         "recording-off pid=" + std::to_string(pid));
  }
}

TEST(StreamingMeasures, SinkCanBeRemoved) {
  Sim sim;
  const RegId r = sim.memory().add_register("r", 8);
  MeasureAccumulator acc(1);
  sim.add_sink(acc);
  sim.spawn("p", [r](ProcessContext& ctx) -> Task<void> {
    co_await ctx.write(r, 1);
    co_await ctx.write(r, 2);
  });
  sim.step(0);
  sim.remove_sink(acc);
  sim.step(0);
  EXPECT_EQ(acc.total(0).steps, 1);          // only the first access seen
  EXPECT_EQ(sim.trace().access_count(), 2u);  // the trace saw both
}

}  // namespace
}  // namespace cfc
