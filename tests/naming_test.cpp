// Naming algorithms (Theorem 4): uniqueness, wait-freedom, model
// discipline, and the exact complexities the paper states, measured by the
// instrumented simulator.
#include <gtest/gtest.h>

#include "core/bounds.h"
#include "naming/checkers.h"
#include "naming/tas_read_search.h"
#include "naming/tas_scan.h"
#include "naming/tas_tar_tree.h"
#include "naming/taf_tree.h"
#include "sched/sched.h"

namespace cfc {
namespace {

struct NamingCase {
  const char* name;
  NamingFactory factory;
  bool needs_power_of_two;
};

std::vector<NamingCase> all_naming_algorithms() {
  return {
      {"taf-tree", TafTree::factory(), true},
      {"tas-tar-tree", TasTarTree::factory(), true},
      {"tas-scan", TasScan::factory(), false},
      {"tas-read-search", TasReadSearch::factory(), false},
  };
}

class NamingProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};  // (alg, n)

TEST_P(NamingProperty, UniqueNamesUnderRandomSchedules) {
  const auto [alg_idx, n] = GetParam();
  const auto algs = all_naming_algorithms();
  const NamingCase& alg = algs[static_cast<std::size_t>(alg_idx)];
  if (alg.needs_power_of_two && (n & (n - 1)) != 0) {
    GTEST_SKIP();
  }
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const NamingRunCheck check = run_naming_random(alg.factory, n, seed);
    EXPECT_TRUE(check.ok()) << alg.name << " seed " << seed;
    EXPECT_EQ(check.names.size(), static_cast<std::size_t>(n));
  }
}

TEST_P(NamingProperty, UniqueNamesUnderSequentialSchedule) {
  const auto [alg_idx, n] = GetParam();
  const auto algs = all_naming_algorithms();
  const NamingCase& alg = algs[static_cast<std::size_t>(alg_idx)];
  if (alg.needs_power_of_two && (n & (n - 1)) != 0) {
    GTEST_SKIP();
  }
  const NamingRunCheck check = run_naming_sequential(alg.factory, n);
  EXPECT_TRUE(check.ok()) << alg.name;
}

TEST_P(NamingProperty, UniqueNamesSurviveCrashes) {
  const auto [alg_idx, n] = GetParam();
  const auto algs = all_naming_algorithms();
  const NamingCase& alg = algs[static_cast<std::size_t>(alg_idx)];
  if (alg.needs_power_of_two && (n & (n - 1)) != 0) {
    GTEST_SKIP();
  }
  // Crash 1/3 of the processes at varying points; survivors must still get
  // unique names and terminate (wait-freedom under stopping failures).
  for (std::uint64_t seed = 100; seed < 120; ++seed) {
    std::vector<CrashPlanEntry> crashes;
    for (Pid p = 0; p < n; p += 3) {
      crashes.push_back({p, seed % 5});
    }
    const NamingRunCheck check =
        run_naming_random(alg.factory, n, seed, crashes);
    EXPECT_TRUE(check.all_terminated) << alg.name << " seed " << seed;
    EXPECT_TRUE(check.names_unique) << alg.name << " seed " << seed;
    EXPECT_TRUE(check.names_in_range) << alg.name << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NamingProperty,
    ::testing::Combine(::testing::Range(0, 4),
                       ::testing::Values(2, 3, 4, 8, 13, 16, 32, 64)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& pinfo) {
      static const auto algs = all_naming_algorithms();
      std::string name =
          algs[static_cast<std::size_t>(std::get<0>(pinfo.param))].name;
      for (char& ch : name) {
        if (ch == '-') {
          ch = '_';
        }
      }
      return name + "_n" + std::to_string(std::get<1>(pinfo.param));
    });

// --- Exact complexities per the paper. ---

// Theorem 4.1: taf-tree takes exactly log2(n) steps over log2(n) distinct
// bits, for every process, in every schedule.
TEST(TafTree, ExactlyLogNStepsAlways) {
  for (int n : {2, 4, 16, 64, 256}) {
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      const NamingRunCheck check =
          run_naming_random(TafTree::factory(), n, seed);
      ASSERT_TRUE(check.ok());
      for (const ComplexityReport& rep : check.per_process) {
        EXPECT_EQ(rep.steps, bounds::thm4_taf_wc_step(
                                 static_cast<std::uint64_t>(n)));
        EXPECT_EQ(rep.registers, rep.steps);
        EXPECT_EQ(rep.atomicity, 1);
      }
    }
  }
}

// Theorem 4.2: tas-tar-tree touches exactly log2(n) distinct bits in every
// run (worst-case register complexity log n), though steps may exceed that.
TEST(TasTarTree, RegisterComplexityIsLogNInEveryRun) {
  for (int n : {2, 4, 16, 64}) {
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      const NamingRunCheck check =
          run_naming_random(TasTarTree::factory(), n, seed);
      ASSERT_TRUE(check.ok());
      for (const ComplexityReport& rep : check.per_process) {
        EXPECT_LE(rep.registers, bounds::thm4_tastar_wc_register(
                                     static_cast<std::uint64_t>(n)));
        EXPECT_GE(rep.steps, rep.registers);
      }
    }
  }
}

// Theorem 4.3: tas-scan worst case is exactly n - 1 steps (the sequential
// schedule realizes it: the i-th process scans i bits).
TEST(TasScan, SequentialRealizesWorstCase) {
  for (int n : {2, 5, 16, 50}) {
    const NamingRunCheck check = run_naming_sequential(TasScan::factory(), n);
    ASSERT_TRUE(check.ok());
    int max_steps = 0;
    for (const ComplexityReport& rep : check.per_process) {
      max_steps = std::max(max_steps, rep.steps);
    }
    EXPECT_EQ(max_steps, static_cast<int>(bounds::thm4_tas_wc_step(
                             static_cast<std::uint64_t>(n))));
  }
}

// The sequential names come out in scan order: process i gets name i+1.
TEST(TasScan, SequentialNamesAreOrdered) {
  const NamingRunCheck check = run_naming_sequential(TasScan::factory(), 6);
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check.names, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

// Theorem 4.4: tas-read-search contention-free step complexity is
// ceil(log2(n-1)) + 1 — logarithmic, against tas-scan's linear.
TEST(TasReadSearch, ContentionFreeStepsLogarithmic) {
  for (int n : {4, 8, 16, 64, 256, 1000}) {
    const NamingRunCheck check =
        run_naming_sequential(TasReadSearch::factory(), n);
    ASSERT_TRUE(check.ok());
    const int expect =
        bounds::ceil_log2(static_cast<std::uint64_t>(n - 1)) + 1;
    for (const ComplexityReport& rep : check.per_process) {
      EXPECT_LE(rep.steps, expect) << "n=" << n;
    }
    int max_steps = 0;
    for (const ComplexityReport& rep : check.per_process) {
      max_steps = std::max(max_steps, rep.steps);
    }
    EXPECT_EQ(max_steps, expect) << "n=" << n;
  }
}

// --- Model discipline: each algorithm runs entirely inside its declared
// model (the simulator throws otherwise), and the declared models match the
// paper's columns. ---
TEST(NamingModels, DeclaredModelsMatchPaper) {
  Sim s1;
  EXPECT_EQ(TafTree(s1.memory(), 8).model(), Model::test_and_flip());
  Sim s2;
  EXPECT_EQ(TasScan(s2.memory(), 8).model(), Model::test_and_set());
  Sim s3;
  EXPECT_EQ(TasReadSearch(s3.memory(), 8).model(),
            Model::read_test_and_set());
  Sim s4;
  EXPECT_EQ(TasTarTree(s4.memory(), 8).model(),
            (Model{BitOp::TestAndSet, BitOp::TestAndReset}));
  EXPECT_TRUE(Model::read_tas_tar().includes(TasTarTree(s4.memory(), 8).model()));
}

// Duality (Section 3.2): running tas-scan through the dual lens — an
// algorithm for the dual model {test-and-reset} obtained by flipping
// initial values and operations — behaves identically.
TEST(NamingModels, DualOfTasScanWorks) {
  const int n = 8;
  Sim sim;
  std::vector<RegId> bits;
  for (int j = 1; j < n; ++j) {
    // Dual: bits start at 1, test-and-reset claims by resetting to 0.
    bits.push_back(sim.memory().add_bit("dual.b" + std::to_string(j), true));
  }
  sim.set_model(Model{BitOp::TestAndReset});
  for (int i = 0; i < n; ++i) {
    std::string label = "p";
    label += std::to_string(i);
    sim.spawn(label, [&bits, n](ProcessContext& ctx) -> Task<void> {
      ctx.set_section(Section::Working);
      int name = n;
      for (std::size_t j = 0; j < bits.size(); ++j) {
        const Value old = co_await ctx.test_and_reset(bits[j]);
        if (old == 1) {  // dual of "old == 0"
          name = static_cast<int>(j + 1);
          break;
        }
      }
      ctx.set_output(name);
      ctx.set_section(Section::Done);
    });
  }
  RoundRobinScheduler rr;
  ASSERT_EQ(drive(sim, rr), RunOutcome::AllDone);
  const NamingRunCheck check = check_naming_run(sim, n);
  EXPECT_TRUE(check.ok());
}

TEST(NamingConstruction, TreesRejectNonPowerOfTwo) {
  Sim sim;
  EXPECT_THROW(TafTree(sim.memory(), 6), std::invalid_argument);
  EXPECT_THROW(TasTarTree(sim.memory(), 12), std::invalid_argument);
  EXPECT_THROW(TafTree(sim.memory(), 1), std::invalid_argument);
}

TEST(NamingConstruction, SpaceIsNMinusOneBits) {
  // All four algorithms use exactly n - 1 shared bits.
  {
    Sim sim;
    TafTree alg(sim.memory(), 16);
    EXPECT_EQ(sim.memory().size(), 15);
  }
  {
    Sim sim;
    TasScan alg(sim.memory(), 16);
    EXPECT_EQ(sim.memory().size(), 15);
  }
  {
    Sim sim;
    TasReadSearch alg(sim.memory(), 16);
    EXPECT_EQ(sim.memory().size(), 15);
  }
  {
    Sim sim;
    TasTarTree alg(sim.memory(), 16);
    EXPECT_EQ(sim.memory().size(), 15);
  }
}

// Wait-freedom: the max steps of any process stays bounded by a function
// of n across schedules (trivially log n or ~2n here), never the budget.
TEST(NamingWaitFreedom, StepsBoundedAcrossSchedules) {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 20; ++s) {
    seeds.push_back(s);
  }
  const int n = 16;
  EXPECT_LE(max_steps_any_process(TafTree::factory(), n, seeds), 4);
  EXPECT_LE(max_steps_any_process(TasScan::factory(), n, seeds), n - 1);
  EXPECT_LE(max_steps_any_process(TasReadSearch::factory(), n, seeds),
            4 + (n - 1));
  // tas-tar-tree: each failed (tas, tar) round witnesses another process's
  // success; <= ~2k extra steps per node with k contenders.
  EXPECT_LE(max_steps_any_process(TasTarTree::factory(), n, seeds), 4 * n);
}

}  // namespace
}  // namespace cfc
