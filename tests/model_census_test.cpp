// The all-models census — the paper's "exercise for the reader" made
// executable: solvability classification of all 256 bit-operation models
// and measured bounds for the solvable ones, with duality as a hard
// symmetry check.
#include <gtest/gtest.h>

#include "analysis/model_census.h"
#include "core/adversary.h"
#include "core/bounds.h"
#include "naming/checkers.h"
#include "naming/dual_scan.h"
#include "sched/sched.h"

namespace cfc {
namespace {

TEST(Solvability, ExactlyModelsWithAValueReturningModifierAreSolvable) {
  int solvable = 0;
  for (int mask = 0; mask < 256; ++mask) {
    const Model m = Model::from_mask(static_cast<std::uint8_t>(mask));
    const bool expect = m.supports(BitOp::TestAndSet) ||
                        m.supports(BitOp::TestAndReset) ||
                        m.supports(BitOp::TestAndFlip);
    EXPECT_EQ(naming_solvable(m), expect) << m.to_string();
    solvable += naming_solvable(m) ? 1 : 0;
  }
  // 2^8 minus the 2^5 masks over {skip, read, write-0, write-1, flip}.
  EXPECT_EQ(solvable, 256 - 32);
}

TEST(Solvability, SolvabilityIsDualInvariant) {
  for (int mask = 0; mask < 256; ++mask) {
    const Model m = Model::from_mask(static_cast<std::uint8_t>(mask));
    EXPECT_EQ(naming_solvable(m), naming_solvable(m.dual_model()))
        << m.to_string();
  }
}

// The negative direction, executed: in a model without tas/tar/taf, the
// lockstep adversary keeps identical processes identical through any op —
// writes and flips return nothing; reads return the same value to all.
TEST(Solvability, LockstepNeverSplitsGroupsWithoutRmwOps) {
  // A protocol over {read, write-1, flip} that tries hard to diverge.
  Sim sim;
  sim.set_model(Model{BitOp::Read, BitOp::Write1, BitOp::Flip});
  const RegId a = sim.memory().add_bit("a");
  const RegId b = sim.memory().add_bit("b");
  std::vector<Pid> group;
  for (int i = 0; i < 6; ++i) {
    std::string label = "p";
    label += std::to_string(i);
    group.push_back(sim.spawn(
        label, [a, b](ProcessContext& ctx) -> Task<void> {
          ctx.set_section(Section::Working);
          co_await ctx.op(BitOp::Write1, a);
          const Value v1 = co_await ctx.op(BitOp::Read, a);
          co_await ctx.op(BitOp::Flip, b);
          const Value v2 = co_await ctx.op(BitOp::Read, b);
          ctx.set_output(static_cast<int>(v1 * 2 + v2));
          ctx.set_section(Section::Done);
        }));
  }
  const LockstepResult res = lockstep_symmetry_adversary(sim, group);
  // Everyone stayed identical and decided together: duplicate outputs.
  EXPECT_TRUE(res.identical_group_terminated);
}

// --- Dual algorithms behave exactly like their originals. ---

TEST(DualAlgorithms, TarScanMirrorsTasScan) {
  for (int n : {2, 8, 16}) {
    const NamingRunCheck check = run_naming_sequential(TarScan::factory(), n);
    ASSERT_TRUE(check.ok());
    // Sequential: process i claims name i+1, exactly like tas-scan.
    for (std::size_t i = 0; i < check.names.size(); ++i) {
      EXPECT_EQ(check.names[i], static_cast<int>(i) + 1);
    }
  }
}

TEST(DualAlgorithms, TarScanUniqueUnderRandomSchedules) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    EXPECT_TRUE(run_naming_random(TarScan::factory(), 12, seed).ok());
    EXPECT_TRUE(run_naming_random(TarReadSearch::factory(), 12, seed).ok());
  }
}

TEST(DualAlgorithms, TarReadSearchLogarithmicContentionFree) {
  for (int n : {8, 64, 256}) {
    const NamingRunCheck check =
        run_naming_sequential(TarReadSearch::factory(), n);
    ASSERT_TRUE(check.ok());
    const int expect =
        bounds::ceil_log2(static_cast<std::uint64_t>(n - 1)) + 1;
    for (const ComplexityReport& rep : check.per_process) {
      EXPECT_LE(rep.steps, expect) << "n=" << n;
    }
  }
}

// --- The census itself. ---

TEST(Census, DualModelsGetIdenticalCells) {
  const auto census = run_model_census(8, {1, 2, 3});
  for (const ModelCensusEntry& e : census) {
    const Model dual = e.model.dual_model();
    const ModelCensusEntry& de = census[dual.mask()];
    ASSERT_EQ(e.solvable, de.solvable) << e.model.to_string();
    if (e.cells.has_value()) {
      ASSERT_TRUE(de.cells.has_value());
      EXPECT_EQ(e.cells->cf_register, de.cells->cf_register)
          << e.model.to_string();
      EXPECT_EQ(e.cells->cf_step, de.cells->cf_step) << e.model.to_string();
      EXPECT_EQ(e.cells->wc_register, de.cells->wc_register)
          << e.model.to_string();
      EXPECT_EQ(e.cells->wc_step, de.cells->wc_step) << e.model.to_string();
    }
  }
}

TEST(Census, PaperColumnsEmbedInTheCensus) {
  const int n = 8;
  const int log_n = 3;
  const auto census = run_model_census(n, {1, 2, 3});

  const auto& tas = census[Model::test_and_set().mask()];
  ASSERT_TRUE(tas.cells.has_value());
  EXPECT_EQ(tas.cells->wc_step, n - 1);
  EXPECT_EQ(tas.cells->cf_register, n - 1);

  const auto& taf = census[Model::test_and_flip().mask()];
  ASSERT_TRUE(taf.cells.has_value());
  EXPECT_EQ(taf.cells->wc_step, log_n);
  EXPECT_EQ(taf.cells->cf_register, log_n);

  const auto& rmw = census[Model::rmw().mask()];
  ASSERT_TRUE(rmw.cells.has_value());
  EXPECT_EQ(rmw.cells->wc_step, log_n);
}

TEST(Census, MonotoneInTheModelLattice) {
  // Adding operations can only improve (not worsen) each best-cell value.
  const auto census = run_model_census(8, {1, 2});
  for (int mask = 0; mask < 256; ++mask) {
    const ModelCensusEntry& e = census[static_cast<std::size_t>(mask)];
    if (!e.cells.has_value()) {
      continue;
    }
    for (BitOp op : kAllBitOps) {
      const Model bigger = e.model.with(op);
      const ModelCensusEntry& be = census[bigger.mask()];
      ASSERT_TRUE(be.cells.has_value());
      EXPECT_LE(be.cells->cf_step, e.cells->cf_step) << e.model.to_string();
      EXPECT_LE(be.cells->wc_step, e.cells->wc_step) << e.model.to_string();
      EXPECT_LE(be.cells->cf_register, e.cells->cf_register)
          << e.model.to_string();
      EXPECT_LE(be.cells->wc_register, e.cells->wc_register)
          << e.model.to_string();
    }
  }
}

TEST(Census, SummaryCounts) {
  const int n = 8;
  const auto census = run_model_census(n, {1, 2});
  const CensusSummary s = summarize(census, n);
  EXPECT_EQ(s.total, 256);
  EXPECT_EQ(s.solvable, 224);
  // taf-containing models (128 of them) are all-log-n; so are {tas,tar}
  // models with enough support. At least the 128.
  EXPECT_GE(s.all_log_n, 128);
  // Models with exactly one of tas/tar and nothing else useful sit at n-1
  // across the board.
  EXPECT_GE(s.all_n_minus_1, 2);
  EXPECT_EQ(s.all_n_minus_1 + s.all_log_n + s.solvable - s.solvable,
            s.all_n_minus_1 + s.all_log_n);  // disjoint categories sanity
  EXPECT_LE(s.all_n_minus_1 + s.all_log_n, s.solvable);
}

}  // namespace
}  // namespace cfc
