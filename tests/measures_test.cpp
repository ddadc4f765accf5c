#include "core/measures.h"

#include <gtest/gtest.h>

#include "sched/sched.h"
#include "sched/sim.h"

namespace cfc {
namespace {

/// A toy "mutex" whose entry code performs `entry_accesses` accesses over
/// `entry_regs` registers and whose exit code performs `exit_accesses`.
struct ToyMutex {
  std::vector<RegId> regs;

  Task<void> session(ProcessContext& ctx, int entry_accesses, int exit_accesses,
                     int entry_regs) const {
    ctx.set_section(Section::Entry);
    for (int i = 0; i < entry_accesses; ++i) {
      co_await ctx.read(regs[static_cast<std::size_t>(i % entry_regs)]);
    }
    ctx.set_section(Section::Critical);
    ctx.set_section(Section::Exit);
    for (int i = 0; i < exit_accesses; ++i) {
      co_await ctx.write(regs[0], 1);
    }
    ctx.set_section(Section::Remainder);
  }
};

TEST(Measures, CountsStepsAndDistinctRegisters) {
  Sim sim;
  ToyMutex toy;
  for (int i = 0; i < 4; ++i) {
    std::string label = "r";
    label += std::to_string(i);
    toy.regs.push_back(sim.memory().add_register(label, 8));
  }
  const Pid p = sim.spawn("p", [&toy](ProcessContext& ctx) {
    return toy.session(ctx, 6, 2, 3);
  });
  run_to_completion(sim, p);

  const ComplexityReport rep = measure_all(sim.trace(), p);
  EXPECT_EQ(rep.steps, 8);
  EXPECT_EQ(rep.registers, 3);  // r0, r1, r2 (r0 reused in exit)
  EXPECT_EQ(rep.read_steps, 6);
  EXPECT_EQ(rep.write_steps, 2);
  EXPECT_EQ(rep.read_registers, 3);
  EXPECT_EQ(rep.write_registers, 1);
  EXPECT_EQ(rep.atomicity, 8);
}

TEST(Measures, WindowRestrictsCounting) {
  Sim sim;
  const RegId r = sim.memory().add_register("r", 4);
  const Pid p = sim.spawn("p", [r](ProcessContext& ctx) -> Task<void> {
    for (int i = 0; i < 6; ++i) {
      co_await ctx.read(r);
    }
  });
  run_to_completion(sim, p);
  const auto accs = sim.trace().accesses_of(p);
  ASSERT_EQ(accs.size(), 6u);
  const ComplexityReport rep =
      measure(sim.trace(), p, SeqRange{accs[1].seq, accs[4].seq});
  EXPECT_EQ(rep.steps, 3);  // accesses 1, 2, 3
}

TEST(Measures, ContentionFreeSessionDetectedWhenAlone) {
  Sim sim;
  ToyMutex toy;
  toy.regs.push_back(sim.memory().add_register("r0", 8));
  toy.regs.push_back(sim.memory().add_register("r1", 8));
  const Pid p = sim.spawn("p", [&toy](ProcessContext& ctx) {
    return toy.session(ctx, 4, 1, 2);
  });
  sim.spawn("idle", [&toy](ProcessContext& ctx) {
    return toy.session(ctx, 4, 1, 2);
  });
  SoloScheduler solo(p);
  drive(sim, solo);

  const auto windows = contention_free_sessions(sim.trace(), p, 2);
  ASSERT_EQ(windows.size(), 1u);
  const ComplexityReport rep = measure(sim.trace(), p, windows[0]);
  EXPECT_EQ(rep.steps, 5);      // 4 entry + 1 exit
  EXPECT_EQ(rep.registers, 2);  // r0, r1
}

TEST(Measures, SessionWithInterferenceIsNotContentionFree) {
  Sim sim;
  ToyMutex toy;
  toy.regs.push_back(sim.memory().add_register("r0", 8));
  const Pid p = sim.spawn("p", [&toy](ProcessContext& ctx) {
    return toy.session(ctx, 4, 1, 1);
  });
  const Pid q = sim.spawn("q", [&toy](ProcessContext& ctx) {
    return toy.session(ctx, 4, 1, 1);
  });
  // Interleave: q enters its entry code while p is mid-session.
  step_n(sim, p, 2);
  step_n(sim, q, 1);  // q now in entry: p's session is contended
  run_to_completion(sim, p);
  run_to_completion(sim, q);

  EXPECT_TRUE(contention_free_sessions(sim.trace(), p, 2).empty());
  // q's later session is also contended (p was in non-remainder at q's
  // entry... p finished first, so q's window start sees p in remainder).
  // q entered entry while p was mid-session, so q has no clean window
  // either.
  EXPECT_TRUE(contention_free_sessions(sim.trace(), q, 2).empty());
}

TEST(Measures, MultipleSessionsEachGetAWindow) {
  Sim sim;
  ToyMutex toy;
  toy.regs.push_back(sim.memory().add_register("r0", 8));
  const Pid p = sim.spawn("p", [&toy](ProcessContext& ctx) -> Task<void> {
    co_await toy.session(ctx, 2, 1, 1);
    co_await toy.session(ctx, 4, 1, 1);
  });
  run_to_completion(sim, p);
  const auto windows = contention_free_sessions(sim.trace(), p, 1);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(measure(sim.trace(), p, windows[0]).steps, 3);
  EXPECT_EQ(measure(sim.trace(), p, windows[1]).steps, 5);
  const ComplexityReport best = max_over_windows(sim.trace(), p, windows);
  EXPECT_EQ(best.steps, 5);
}

TEST(Measures, CleanEntryWindowExcludesCsHolders) {
  Sim sim;
  ToyMutex toy;
  toy.regs.push_back(sim.memory().add_register("r0", 8));
  const Pid p = sim.spawn("p", [&toy](ProcessContext& ctx) {
    return toy.session(ctx, 3, 1, 1);
  });
  const Pid q = sim.spawn("q", [&toy](ProcessContext& ctx) {
    return toy.session(ctx, 3, 1, 1);
  });
  // p runs its whole session first; q then has a clean entry window.
  run_to_completion(sim, p);
  run_to_completion(sim, q);
  const auto p_windows = clean_entry_windows(sim.trace(), p, 2);
  const auto q_windows = clean_entry_windows(sim.trace(), q, 2);
  ASSERT_EQ(p_windows.size(), 1u);
  ASSERT_EQ(q_windows.size(), 1u);
  EXPECT_EQ(measure(sim.trace(), p, p_windows[0]).steps, 3);
  EXPECT_EQ(measure(sim.trace(), q, q_windows[0]).steps, 3);
}

TEST(Measures, EntryWindowDirtyWhileOtherInCriticalSection) {
  Sim sim;
  ToyMutex toy;
  toy.regs.push_back(sim.memory().add_register("r0", 8));
  const RegId gate = sim.memory().add_bit("gate");
  // p holds the critical section until gate is set.
  const Pid p = sim.spawn("p", [&toy, gate](ProcessContext& ctx) -> Task<void> {
    ctx.set_section(Section::Entry);
    co_await ctx.read(toy.regs[0]);
    ctx.set_section(Section::Critical);
    for (;;) {
      const Value v = co_await ctx.read(gate);
      if (v != 0) {
        break;
      }
    }
    ctx.set_section(Section::Exit);
    co_await ctx.write(toy.regs[0], 1);
    ctx.set_section(Section::Remainder);
  });
  const Pid q = sim.spawn("q", [&toy](ProcessContext& ctx) {
    return toy.session(ctx, 3, 1, 1);
  });
  const Pid helper = sim.spawn("helper", [gate](ProcessContext& ctx) -> Task<void> {
    co_await ctx.write(gate, 1);
  });

  step_n(sim, p, 2);  // p now in critical section, spinning on gate
  EXPECT_EQ(sim.section(p), Section::Critical);
  step_n(sim, q, 2);  // q enters and works while p is in CS: dirty window
  step_n(sim, helper, 1);
  run_to_completion(sim, p);
  run_to_completion(sim, q);

  EXPECT_TRUE(clean_entry_windows(sim.trace(), q, 3).empty());
}

TEST(Measures, ExitWindowsMeasureExitCodeOnly) {
  Sim sim;
  ToyMutex toy;
  toy.regs.push_back(sim.memory().add_register("r0", 8));
  const Pid p = sim.spawn("p", [&toy](ProcessContext& ctx) {
    return toy.session(ctx, 5, 2, 1);
  });
  run_to_completion(sim, p);
  const auto windows = exit_windows(sim.trace(), p);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(measure(sim.trace(), p, windows[0]).steps, 2);
}

TEST(Measures, ReportMaxAndPlusCombinators) {
  ComplexityReport a;
  a.steps = 5;
  a.registers = 2;
  a.atomicity = 4;
  ComplexityReport b;
  b.steps = 3;
  b.registers = 6;
  b.atomicity = 1;
  const ComplexityReport mx = a.max_with(b);
  EXPECT_EQ(mx.steps, 5);
  EXPECT_EQ(mx.registers, 6);
  EXPECT_EQ(mx.atomicity, 4);
  const ComplexityReport sum = a.plus(b);
  EXPECT_EQ(sum.steps, 8);
  EXPECT_EQ(sum.registers, 8);
  EXPECT_EQ(sum.atomicity, 4);
}

TEST(Measures, NotStartedProcessesCountAsRemainder) {
  Sim sim;
  ToyMutex toy;
  toy.regs.push_back(sim.memory().add_register("r0", 8));
  const Pid p = sim.spawn("p", [&toy](ProcessContext& ctx) {
    return toy.session(ctx, 2, 1, 1);
  });
  // Three spawned-but-never-run processes.
  for (int i = 0; i < 3; ++i) {
    std::string label = "idle";
    label += std::to_string(i);
    sim.spawn(label, [&toy](ProcessContext& ctx) {
      return toy.session(ctx, 2, 1, 1);
    });
  }
  run_to_completion(sim, p);
  EXPECT_EQ(contention_free_sessions(sim.trace(), p, 4).size(), 1u);
}

}  // namespace
}  // namespace cfc
