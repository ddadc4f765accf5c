// Naming lower bounds (Theorems 5-7) demonstrated by executable
// adversaries, and the Section 3.3 table's per-cell measured values.
#include <gtest/gtest.h>

#include "analysis/naming_complexity.h"
#include "core/adversary.h"
#include "core/bounds.h"
#include "naming/checkers.h"
#include "naming/tas_read_search.h"
#include "naming/tas_scan.h"
#include "naming/tas_tar_tree.h"
#include "naming/taf_tree.h"
#include "sched/sched.h"

namespace cfc {
namespace {

// Theorem 5: in every model, some process accesses >= log n distinct bits
// in the contention-free (sequential) run. Checked against all four
// algorithms — including taf-tree, where it is tight.
TEST(Theorem5, SequentialRunForcesLogNRegisters) {
  struct Case {
    NamingFactory factory;
    bool pow2_only;
  };
  const std::vector<Case> cases = {{TafTree::factory(), true},
                                   {TasTarTree::factory(), true},
                                   {TasScan::factory(), false},
                                   {TasReadSearch::factory(), false}};
  for (const Case& c : cases) {
    for (int n : {2, 4, 8, 16, 64}) {
      if (c.pow2_only && (n & (n - 1)) != 0) {
        continue;
      }
      const NamingRunCheck check = run_naming_sequential(c.factory, n);
      ASSERT_TRUE(check.ok());
      int max_regs = 0;
      for (const ComplexityReport& rep : check.per_process) {
        max_regs = std::max(max_regs, rep.registers);
      }
      EXPECT_GE(max_regs, bounds::thm5_cf_register_lower(
                              static_cast<std::uint64_t>(n)))
          << "n=" << n;
    }
  }
}

// Theorem 6: without test-and-flip, the lockstep adversary forces some
// process through >= n - 1 steps.
TEST(Theorem6, LockstepForcesNMinus1StepsWithoutTaf) {
  for (int n : {4, 8, 16, 32}) {
    Sim sim;
    auto alg = setup_naming(sim, TasScan::factory(), n);
    std::vector<Pid> group;
    for (Pid p = 0; p < n; ++p) {
      group.push_back(p);
    }
    const LockstepResult res = lockstep_symmetry_adversary(sim, group);
    EXPECT_FALSE(res.identical_group_terminated);
    EXPECT_GE(res.rounds,
              bounds::thm6_wc_step_lower(static_cast<std::uint64_t>(n)))
        << "n=" << n;
  }
}

// ... while with test-and-flip the identical set halves per round and the
// adversary collapses after ~log n rounds: Theorem 6's exclusion of
// test-and-flip is necessary.
TEST(Theorem6, TafEscapesTheLockstepAdversary) {
  for (int n : {4, 8, 16, 32, 64}) {
    Sim sim;
    auto alg = setup_naming(sim, TafTree::factory(), n);
    std::vector<Pid> group;
    for (Pid p = 0; p < n; ++p) {
      group.push_back(p);
    }
    const LockstepResult res = lockstep_symmetry_adversary(sim, group);
    EXPECT_FALSE(res.identical_group_terminated);
    EXPECT_EQ(res.rounds, static_cast<std::uint64_t>(bounds::ceil_log2(
                              static_cast<std::uint64_t>(n))))
        << "n=" << n;
  }
}

// Theorem 7: with test-and-set only, the *contention-free* register
// complexity is already n - 1: in the sequential run the last process
// touches every bit.
TEST(Theorem7, TasOnlySequentialForcesNMinus1Registers) {
  for (int n : {2, 4, 8, 16, 50}) {
    const NamingRunCheck check = run_naming_sequential(TasScan::factory(), n);
    ASSERT_TRUE(check.ok());
    int max_regs = 0;
    for (const ComplexityReport& rep : check.per_process) {
      max_regs = std::max(max_regs, rep.registers);
    }
    EXPECT_EQ(max_regs, static_cast<int>(bounds::thm7_tas_cf_register_lower(
                            static_cast<std::uint64_t>(n))))
        << "n=" << n;
  }
}

// --- The Section 3.3 table, measured. ---

class Table2 : public ::testing::TestWithParam<int> {};

TEST_P(Table2, MeasuredCellsMatchPaper) {
  const int n = GetParam();
  const auto log_n = bounds::ceil_log2(static_cast<std::uint64_t>(n));
  const std::vector<std::uint64_t> seeds = {1, 2, 3, 4, 5};
  const std::vector<Table2Column> table = measure_table2(n, seeds);
  ASSERT_EQ(table.size(), 5u);

  // Column 1: test-and-set — n-1 everywhere.
  {
    const Table2Cell c = table[0].best();
    EXPECT_EQ(c.cf_register, n - 1);
    EXPECT_EQ(c.cf_step, n - 1);
    EXPECT_EQ(c.wc_register, n - 1);
    EXPECT_EQ(c.wc_step, n - 1);
  }
  // Column 2: read+test-and-set — contention-free drops to ~log n; the
  // worst case stays n-1.
  {
    const Table2Cell c = table[1].best();
    EXPECT_LE(c.cf_step, log_n + 1);
    EXPECT_LE(c.cf_register, log_n + 1);
    EXPECT_GE(c.cf_step, log_n);
    EXPECT_EQ(c.wc_step, n - 1);
  }
  // Column 3: read+tas+tar — worst-case register drops to log n too;
  // worst-case steps remain n-1.
  {
    const Table2Cell c = table[2].best();
    EXPECT_EQ(c.wc_register, log_n);
    EXPECT_LE(c.cf_register, log_n);
    EXPECT_EQ(c.wc_step, n - 1);
  }
  // Column 4: test-and-flip — log n for all four measures, exactly.
  {
    const Table2Cell c = table[3].best();
    EXPECT_EQ(c.cf_register, log_n);
    EXPECT_EQ(c.cf_step, log_n);
    EXPECT_EQ(c.wc_register, log_n);
    EXPECT_EQ(c.wc_step, log_n);
  }
  // Column 5: rmw — the best of everything: log n across the board.
  {
    const Table2Cell c = table[4].best();
    EXPECT_EQ(c.cf_register, log_n);
    EXPECT_EQ(c.cf_step, log_n);
    EXPECT_EQ(c.wc_register, log_n);
    EXPECT_EQ(c.wc_step, log_n);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, Table2, ::testing::Values(4, 8, 16, 32),
                         [](const ::testing::TestParamInfo<int>& pinfo) {
                           std::string label = "n";
                           label += std::to_string(pinfo.param);
                           return label;
                         });

// The read/write-only bit model cannot solve naming deterministically
// (Section 3.1): under the lockstep adversary, identical processes that
// can never learn anything distinguishing either run forever or terminate
// together with duplicate names. We exhibit the latter for the natural
// write-then-read attempt.
TEST(ReadWriteModel, SymmetryCannotBeBroken) {
  const int n = 4;
  Sim sim;
  sim.set_model(Model::read_write());
  const RegId r = sim.memory().add_bit("rw.r");
  std::vector<Pid> group;
  for (int i = 0; i < n; ++i) {
    std::string label = "p";
    label += std::to_string(i);
    group.push_back(
        sim.spawn(label, [r](ProcessContext& ctx) -> Task<void> {
          ctx.set_section(Section::Working);
          // Identical deterministic protocol: write 1, read, decide.
          co_await ctx.op(BitOp::Write1, r);
          const Value v = co_await ctx.op(BitOp::Read, r);
          ctx.set_output(static_cast<int>(v));
          ctx.set_section(Section::Done);
        }));
  }
  const LockstepResult res = lockstep_symmetry_adversary(sim, group);
  EXPECT_TRUE(res.identical_group_terminated);
}

}  // namespace
}  // namespace cfc
