// Exhaustive bounded-depth safety verification on the schedule-space
// Explorer's unreduced oracle (ReductionPolicy::Off, no objective): every
// interleaving up to the depth bound is stepped and checked by the
// simulator's mutual-exclusion invariant. The two-process rows run with
// the visited cache off, so every schedule of the tree is a leaf, and pin
// its exact (completed, truncated, violations) counts. The n=3 row covers
// every registry mutex at three processes with the cache on; a cache hit is
// the same state (memory x process digests), so its subtree has the same
// violations.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "analysis/explorer.h"
#include "core/algorithm_registry.h"
#include "mutex/kessels.h"
#include "mutex/lamport_fast.h"
#include "mutex/lamport_packed.h"
#include "mutex/mutex_algorithm.h"
#include "mutex/peterson.h"
#include "mutex/tas_lock.h"
#include "mutex/tournament.h"

namespace cfc {
namespace {

/// The unreduced safety search of `n` processes running `sessions`
/// sessions each, up to `depth` picks.
ExploreStats safety_search(const MutexFactory& make, int n, int sessions,
                           int depth, bool prune_visited) {
  Explorer::Config cfg;
  cfg.nprocs = n;
  cfg.setup = [make, n, sessions](Sim& sim) -> std::shared_ptr<void> {
    return setup_mutex(sim, make, n, sessions);
  };
  cfg.strategy = SearchStrategy::Exhaustive;
  cfg.limits.max_depth = depth;
  cfg.limits.reduction = ReductionPolicy::Off;
  cfg.limits.prune_visited = prune_visited;
  return Explorer(cfg).run().stats;
}

/// Every two-process schedule of at most `depth` picks: a schedule still
/// running at the bound counts as truncated, so the waiting paths are
/// covered up to the bound and the non-waiting ones completely.
void expect_two_process_counts(const MutexFactory& make, int sessions,
                               int depth, std::uint64_t completed,
                               std::uint64_t truncated) {
  const ExploreStats s =
      safety_search(make, 2, sessions, depth, /*prune_visited=*/false);
  EXPECT_EQ(s.runs_completed, completed);
  EXPECT_EQ(s.runs_truncated, truncated);
  EXPECT_EQ(s.violations, 0u);
}

TEST(Exhaustive, PetersonAllInterleavingsDepth16) {
  // Depth 16 covers every completed run of one session each (max 12 picks
  // on non-spinning paths) plus every spin prefix up to the bound.
  expect_two_process_counts(Peterson::factory(), /*sessions=*/1, 16, 882,
                            10'606);
}

TEST(Exhaustive, KesselsAllInterleavingsDepth16) {
  expect_two_process_counts(Kessels::factory(), 1, 16, 696, 27'458);
}

TEST(Exhaustive, LamportAllInterleavingsDepth16) {
  expect_two_process_counts(LamportFast::factory(), 1, 16, 312, 41'522);
}

TEST(Exhaustive, LamportPackedAllInterleavingsDepth16) {
  expect_two_process_counts(LamportPacked::factory(), 1, 16, 312, 41'522);
}

TEST(Exhaustive, TasLockAllInterleavingsDepth14) {
  expect_two_process_counts(TasLock::factory(), 1, 14, 90, 94);
}

TEST(Exhaustive, PetersonTwoSessionsDepth20) {
  // Two sessions of five picks each per process need >= 20 picks, so only
  // the tightest interleavings complete inside the bound — but every
  // reachable 20-step prefix is still checked.
  expect_two_process_counts(Peterson::factory(), /*sessions=*/2, 20, 516,
                            979'256);
}

TEST(Exhaustive, PetersonTreeTwoProcessesDepth18) {
  // A 2-leaf tournament degenerates to its root node; the exhaustive sweep
  // checks the tree plumbing end to end.
  expect_two_process_counts(TournamentMutex::peterson_tree(), 1, 18, 2'688,
                            19'952);
}

TEST(Exhaustive, EveryRegistryMutexSafeAtThreeProcessesDepth16) {
  const auto subjects = AlgorithmRegistry::instance().mutex_for_n(3);
  EXPECT_FALSE(subjects.empty());
  for (const MutexAlgorithmEntry* e : subjects) {
    const ExploreStats s =
        safety_search(e->factory, 3, 1, 16, /*prune_visited=*/true);
    EXPECT_EQ(s.violations, 0u) << e->info.name;
    EXPECT_GT(s.states_visited, 0u) << e->info.name;
  }
}

// The search finds violations when they exist: a broken "lock" that just
// reads a register admits a double-CS at a very small depth.
TEST(Exhaustive, BrokenLockCaughtImmediately) {
  class NoMutex final : public MutexAlgorithm {
   public:
    explicit NoMutex(RegisterFile& mem) { r_ = mem.add_bit("nomutex.r"); }
    Task<void> enter(ProcessContext& ctx, int) override {
      co_await ctx.read(r_);
    }
    Task<void> exit(ProcessContext& ctx, int) override {
      co_await ctx.read(r_);
    }
    Task<Value> try_enter(ProcessContext& ctx, int slot, RegId) override {
      co_await enter(ctx, slot);
      co_return 1;
    }
    [[nodiscard]] int capacity() const override { return 2; }
    [[nodiscard]] int atomicity() const override { return 1; }
    [[nodiscard]] std::string algorithm_name() const override {
      return "broken";
    }

   private:
    RegId r_;
  };
  const MutexFactory broken = [](RegisterFile& mem, int) {
    return std::make_unique<NoMutex>(mem);
  };
  const ExploreStats s = safety_search(broken, 2, 1, 8, false);
  EXPECT_GT(s.violations, 0u);
}
// (The leaf-to-root tournament release bug structurally needs a third
// process from the opposite subtree; it is covered by the random-schedule
// regression in mutex_safety_test.)

}  // namespace
}  // namespace cfc
