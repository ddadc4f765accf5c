#include "core/adversary.h"

#include <gtest/gtest.h>

#include "core/bounds.h"
#include "core/contention_detection.h"
#include "core/measures.h"
#include "sched/sched.h"

namespace cfc {
namespace {

SimSetup splitter_setup(int n, int l) {
  return [n, l](Sim& sim) {
    auto det = setup_detection(sim, SplitterTree::factory(l), n);
    // Keep the detector alive for the sim's lifetime by stashing it in a
    // shared_ptr captured by a no-op spawn... simpler: leak into a static.
    static std::vector<std::unique_ptr<Detector>> keep_alive;
    keep_alive.push_back(std::move(det));
  };
}

SimSetup selfish_setup(int n) {
  return [n](Sim& sim) {
    auto det = setup_detection(sim, SelfishDetector::factory(), n);
    static std::vector<std::unique_ptr<Detector>> keep_alive;
    keep_alive.push_back(std::move(det));
  };
}

TEST(SoloProfile, ExtractsWritesReadsAndFirstWriteOrder) {
  const SoloProfile prof = solo_profile(splitter_setup(8, 2), 3);
  // Splitter tree solo: ids 0..7 need 3 bits, l=2 -> d=2 levels; at each
  // node: write x, read y, write y, read x.
  const int d = 2;
  ASSERT_EQ(prof.accesses.size(), static_cast<std::size_t>(4 * d));
  EXPECT_EQ(prof.writes.size(), static_cast<std::size_t>(2 * d));
  EXPECT_EQ(prof.reads.size(), static_cast<std::size_t>(2 * d));
  EXPECT_EQ(prof.wr.size(), static_cast<std::size_t>(2 * d));
  EXPECT_EQ(prof.output, 1);
}

TEST(SoloProfile, WValuesEncodeProcessId) {
  const SoloProfile p1 = solo_profile(splitter_setup(8, 3), 1);
  const SoloProfile p2 = solo_profile(splitter_setup(8, 3), 2);
  // l = 3 covers the whole 3-bit id space: a single node whose x register
  // receives the full 0-based id.
  ASSERT_FALSE(p1.writes.empty());
  ASSERT_FALSE(p2.writes.empty());
  EXPECT_EQ(p1.writes[0].first, p2.writes[0].first);  // same register x
  EXPECT_EQ(p1.writes[0].second, 1u);
  EXPECT_EQ(p2.writes[0].second, 2u);
}

// Lemma 2: every correct detector satisfies the condition for every pair.
TEST(Lemma2, ConditionHoldsForAllSplitterPairs) {
  const int n = 6;
  for (int l : {1, 2, 4}) {
    std::vector<SoloProfile> profs;
    for (Pid p = 0; p < n; ++p) {
      profs.push_back(solo_profile(splitter_setup(n, l), p));
    }
    for (Pid a = 0; a < n; ++a) {
      for (Pid b = a + 1; b < n; ++b) {
        EXPECT_TRUE(lemma2_condition(profs[static_cast<std::size_t>(a)],
                                     profs[static_cast<std::size_t>(b)]))
            << "l=" << l << " pair " << a << "," << b;
      }
    }
  }
}

// ... and the broken detector violates it for every pair.
TEST(Lemma2, ConditionFailsForSelfishDetector) {
  const int n = 4;
  std::vector<SoloProfile> profs;
  for (Pid p = 0; p < n; ++p) {
    profs.push_back(solo_profile(selfish_setup(n), p));
  }
  for (Pid a = 0; a < n; ++a) {
    for (Pid b = a + 1; b < n; ++b) {
      EXPECT_FALSE(lemma2_condition(profs[static_cast<std::size_t>(a)],
                                    profs[static_cast<std::size_t>(b)]));
    }
  }
}

// The merge adversary turns the violated condition into a double win —
// the executable content of Lemma 2's proof.
TEST(Lemma2, MergeAdversaryDoubleWinsBrokenDetector) {
  const MergeResult res = lemma2_merge(selfish_setup(2), 0, 1);
  EXPECT_TRUE(res.both_terminated);
  EXPECT_TRUE(res.both_won());
}

// Against a correct detector the merge produces a legal run: at most one 1.
TEST(Lemma2, MergeAdversaryCannotBreakSplitter) {
  for (int l : {1, 2, 3}) {
    for (Pid a = 0; a < 4; ++a) {
      for (Pid b = 0; b < 4; ++b) {
        if (a == b) {
          continue;
        }
        const MergeResult res = lemma2_merge(splitter_setup(4, l), a, b);
        EXPECT_TRUE(res.both_terminated);
        const int winners = (res.output1 == 1 ? 1 : 0) +
                            (res.output2 == 1 ? 1 : 0);
        EXPECT_LE(winners, 1) << "l=" << l << " " << a << "," << b;
      }
    }
  }
}

// --- Lockstep symmetry adversary (Theorem 6 machinery). ---

/// Identical processes: each scans an array of test-and-set bits for the
/// first 0, like the Theorem 4.3 naming algorithm (no process ids used).
Task<void> tas_scan_body(ProcessContext& ctx, const std::vector<RegId>& bits) {
  ctx.set_section(Section::Working);
  int claimed = static_cast<int>(bits.size());  // fallback name
  for (std::size_t j = 0; j < bits.size(); ++j) {
    if (co_await ctx.test_and_set(bits[j]) == 0) {
      claimed = static_cast<int>(j);
      break;
    }
  }
  ctx.set_output(claimed);
  ctx.set_section(Section::Done);
}

TEST(Lockstep, TasScanForcesLinearRounds) {
  const int n = 8;
  Sim sim;
  std::vector<RegId> bits;
  for (int j = 0; j < n - 1; ++j) {
    std::string label = "b";
    label += std::to_string(j);
    bits.push_back(sim.memory().add_bit(label));
  }
  std::vector<Pid> group;
  for (int i = 0; i < n; ++i) {
    std::string label = "p";
    label += std::to_string(i);
    group.push_back(sim.spawn(label,
                              [&bits](ProcessContext& ctx) {
                                return tas_scan_body(ctx, bits);
                              }));
  }
  const LockstepResult res = lockstep_symmetry_adversary(sim, group);
  // Each tas splits off exactly one process (the one that saw 0): the
  // identical set shrinks by one per round -> n - 1 rounds survive.
  EXPECT_FALSE(res.identical_group_terminated);
  EXPECT_EQ(res.rounds, static_cast<std::uint64_t>(n - 1));
  EXPECT_GE(res.rounds, bounds::thm6_wc_step_lower(n));
}

/// Identical processes over a test-and-flip tree: the adversary's identical
/// set halves each round, so it collapses in ~log n rounds — the reason
/// Theorem 6 excludes test-and-flip.
Task<void> taf_probe_body(ProcessContext& ctx, const std::vector<RegId>& bits) {
  ctx.set_section(Section::Working);
  std::size_t v = 0;
  int path = 0;
  for (std::size_t level = 0; level < bits.size(); ++level) {
    const Value r = co_await ctx.test_and_flip(bits[v]);
    path = path * 2 + static_cast<int>(r);
    v = 2 * v + 1 + static_cast<std::size_t>(r);
    if (v >= bits.size()) {
      break;
    }
  }
  ctx.set_output(path);
  ctx.set_section(Section::Done);
}

TEST(Lockstep, TestAndFlipHalvesTheIdenticalSet) {
  const int n = 16;
  Sim sim;
  std::vector<RegId> bits;
  for (int j = 0; j < n - 1; ++j) {
    std::string label = "t";
    label += std::to_string(j);
    bits.push_back(sim.memory().add_bit(label));
  }
  std::vector<Pid> group;
  for (int i = 0; i < n; ++i) {
    std::string label = "p";
    label += std::to_string(i);
    group.push_back(sim.spawn(label,
                              [&bits](ProcessContext& ctx) {
                                return taf_probe_body(ctx, bits);
                              }));
  }
  const LockstepResult res = lockstep_symmetry_adversary(sim, group);
  // Set sizes 16 -> 8 -> 4 -> 2, then the final pair terminates at the leaf
  // level as singletons (distinct names): log2(n) rounds in total.
  EXPECT_EQ(res.rounds, 4u);
  EXPECT_FALSE(res.identical_group_terminated);
  ASSERT_EQ(res.group_sizes.size(), 3u);
  EXPECT_EQ(res.group_sizes[0], 8u);
  EXPECT_EQ(res.group_sizes[1], 4u);
  EXPECT_EQ(res.group_sizes[2], 2u);
}

/// The adversary reads its observations off the event stream: with trace
/// recording off it partitions exactly as with it on, and records nothing.
TEST(Lockstep, NeedsNoTraceRecording) {
  const int n = 16;
  Sim sim;
  sim.set_trace_recording(false);
  std::vector<RegId> bits;
  for (int j = 0; j < n - 1; ++j) {
    std::string label = "t";
    label += std::to_string(j);
    bits.push_back(sim.memory().add_bit(label));
  }
  std::vector<Pid> group;
  for (int i = 0; i < n; ++i) {
    std::string label = "p";
    label += std::to_string(i);
    group.push_back(sim.spawn(label,
                              [&bits](ProcessContext& ctx) {
                                return taf_probe_body(ctx, bits);
                              }));
  }
  const LockstepResult res = lockstep_symmetry_adversary(sim, group);
  EXPECT_EQ(res.rounds, 4u);
  EXPECT_FALSE(res.identical_group_terminated);
  EXPECT_EQ(res.group_sizes, (std::vector<std::size_t>{8, 4, 2}));
  EXPECT_TRUE(sim.trace().empty());
}

/// A broken "naming" algorithm that ignores shared memory: the adversary
/// catches the identical group terminating together (duplicate outputs).
Task<void> oblivious_body(ProcessContext& ctx, RegId r) {
  ctx.set_section(Section::Working);
  co_await ctx.op(BitOp::Read, r);
  ctx.set_output(7);  // everyone picks the same name
  ctx.set_section(Section::Done);
}

TEST(Lockstep, CatchesIdenticalGroupTerminatingTogether) {
  Sim sim;
  const RegId r = sim.memory().add_bit("r");
  std::vector<Pid> group;
  for (int i = 0; i < 4; ++i) {
    std::string label = "p";
    label += std::to_string(i);
    group.push_back(sim.spawn(label,
                              [r](ProcessContext& ctx) {
                                return oblivious_body(ctx, r);
                              }));
  }
  const LockstepResult res = lockstep_symmetry_adversary(sim, group);
  EXPECT_TRUE(res.identical_group_terminated);
}

TEST(RunSequentially, CompletesAllProcesses) {
  Sim sim;
  std::vector<RegId> bits;
  for (int j = 0; j < 3; ++j) {
    std::string label = "b";
    label += std::to_string(j);
    bits.push_back(sim.memory().add_bit(label));
  }
  for (int i = 0; i < 4; ++i) {
    std::string label = "p";
    label += std::to_string(i);
    sim.spawn(label, [&bits](ProcessContext& ctx) {
      return tas_scan_body(ctx, bits);
    });
  }
  EXPECT_TRUE(run_sequentially(sim));
  EXPECT_TRUE(sim.all_done());
  // Theorem 7 shape: the i-th process touches i+1 registers (capped), so
  // the last ones touch all n-1 = 3 bits.
  const ComplexityReport last = measure_all(sim.trace(), 3);
  EXPECT_EQ(last.registers, 3);
}

}  // namespace
}  // namespace cfc
