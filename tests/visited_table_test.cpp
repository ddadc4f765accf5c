// SleepCache correctness against a map-based subsumption oracle: the flat
// open-addressing cache with inline/spilled antichain masks must answer
// every subsumed() query exactly like the straightforward
// unordered_map<key, vector<mask>> implementation, across random
// workloads, key collisions on probe chains, inline overflow into the
// spill pool, clearing, and growth/rehash.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include "analysis/visited_table.h"

namespace cfc {
namespace {

/// Reference semantics for the sleep-set-aware cache: a stored mask m
/// subsumes a visit under `sleep` iff m ⊆ sleep; inserting drops stored
/// supersets of the new mask (the new, wider exploration covers them).
class SleepOracle {
 public:
  [[nodiscard]] bool subsumed(std::uint64_t key, std::uint32_t sleep) const {
    const auto it = map_.find(key);
    if (it == map_.end()) {
      return false;
    }
    for (const std::uint32_t m : it->second) {
      if ((m & ~sleep) == 0) {
        return true;
      }
    }
    return false;
  }

  void insert(std::uint64_t key, std::uint32_t sleep) {
    std::vector<std::uint32_t>& v = map_[key];
    std::erase_if(v,
                  [&](std::uint32_t m) { return (sleep & ~m) == 0; });
    v.push_back(sleep);
  }

  [[nodiscard]] std::size_t size() const { return map_.size(); }

 private:
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> map_;
};

TEST(SleepCache, MatchesOracleOnRandomWorkload) {
  std::mt19937_64 rng(42);
  SleepCache cache;
  SleepOracle oracle;
  // Few distinct keys and narrow 8-bit masks: subset/superset relations
  // are frequent, so the antichain maintenance is exercised hard.
  std::uniform_int_distribution<std::uint64_t> key_dist(0, 199);
  std::uniform_int_distribution<std::uint32_t> mask_dist(0, 255);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t key = key_dist(rng) * 0x100000001b3ULL;
    const std::uint32_t sleep = mask_dist(rng);
    ASSERT_EQ(cache.subsumed(key, sleep), oracle.subsumed(key, sleep))
        << "key " << key << " sleep " << sleep;
    if (!cache.subsumed(key, sleep)) {
      cache.insert(key, sleep);
      oracle.insert(key, sleep);
    }
  }
  EXPECT_EQ(cache.size(), oracle.size());
}

TEST(SleepCache, CheckAndInsertMatchesTwoCallForm) {
  std::mt19937_64 rng(7);
  SleepCache combined;
  SleepCache split;
  std::uniform_int_distribution<std::uint64_t> key_dist(0, 99);
  std::uniform_int_distribution<std::uint32_t> mask_dist(0, 63);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t key = key_dist(rng);
    const std::uint32_t sleep = mask_dist(rng);
    const bool was = split.subsumed(key, sleep);
    if (!was) {
      split.insert(key, sleep);
    }
    ASSERT_EQ(combined.check_and_insert(key, sleep), was);
  }
  EXPECT_EQ(combined.size(), split.size());
}

TEST(SleepCache, SubsetSubsumesAndInsertDropsSupersets) {
  SleepCache cache;
  cache.insert(1, 0b0011);
  // A stored subset covers any wider sleep mask...
  EXPECT_TRUE(cache.subsumed(1, 0b0011));
  EXPECT_TRUE(cache.subsumed(1, 0b0111));
  // ...but never a narrower one (the narrower visit explores more).
  EXPECT_FALSE(cache.subsumed(1, 0b0001));
  EXPECT_FALSE(cache.subsumed(1, 0b0110));
  // Inserting the narrower mask subsumes the stored superset.
  cache.insert(1, 0b0001);
  EXPECT_TRUE(cache.subsumed(1, 0b0001));
  EXPECT_TRUE(cache.subsumed(1, 0b0011));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SleepCache, IncomparableMasksSpillPastTheInlineSlots) {
  SleepCache cache;
  const std::uint64_t key = 77;
  // ~(1 << i) masks are pairwise incomparable: none subsumes another, so
  // 12 of them overflow the 2 inline slots into the spill pool.
  for (int i = 0; i < 12; ++i) {
    const std::uint32_t m = 0xFFFu & ~(1u << i);
    EXPECT_FALSE(cache.subsumed(key, m));
    cache.insert(key, m);
  }
  for (int i = 0; i < 12; ++i) {
    EXPECT_TRUE(cache.subsumed(key, 0xFFFu & ~(1u << i)));
  }
  EXPECT_FALSE(cache.subsumed(key, 0xFFFu & ~(3u << 3)));
  EXPECT_GT(cache.live_bytes(), 0u);
  EXPECT_LE(cache.live_bytes(), cache.bytes());
  // The empty mask subsumes everything: the whole antichain collapses.
  cache.insert(key, 0);
  EXPECT_TRUE(cache.subsumed(key, 0));
  EXPECT_EQ(cache.size(), 1u);
  // The freed spill nodes are recycled for another key.
  for (int i = 0; i < 12; ++i) {
    cache.insert(key + 1, 0xFFFu & ~(1u << i));
  }
  EXPECT_TRUE(cache.subsumed(key + 1, 0xFFFu & ~(1u << 5)));
}

TEST(SleepCache, ClearKeepsReservedCapacity) {
  SleepCache cache;
  for (std::uint64_t k = 1; k <= 500; ++k) {
    for (int i = 0; i < 4; ++i) {
      cache.insert(k * 0x9e3779b9ULL, 0xFFu & ~(1u << i));
    }
  }
  const std::size_t reserved = cache.bytes();
  EXPECT_GT(cache.size(), 0u);
  EXPECT_GT(cache.live_bytes(), 0u);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.subsumed(0x9e3779b9ULL, 0xFF));
  // Capacity (slot array + spill pool) survives for reuse; live bytes
  // fall back to the empty slot array.
  EXPECT_EQ(cache.bytes(), reserved);
  cache.insert(123, 7);
  EXPECT_TRUE(cache.subsumed(123, 7));
  EXPECT_EQ(cache.bytes(), reserved);
}

TEST(SleepCache, SurvivesGrowthAndKeyZero) {
  SleepCache cache;
  SleepOracle oracle;
  std::mt19937_64 rng(3);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t key = rng();  // distinct keys: forces rehashes
    cache.insert(key, 0b101);
    oracle.insert(key, 0b101);
  }
  // Key 0 is remapped internally but must behave like any key.
  EXPECT_FALSE(cache.subsumed(0, 0xFFFF));
  cache.insert(0, 0b11);
  EXPECT_TRUE(cache.subsumed(0, 0b111));
  EXPECT_FALSE(cache.subsumed(0, 0b1));
  EXPECT_EQ(cache.size(), oracle.size() + 1);
  EXPECT_GT(cache.bytes(), 0u);
}

}  // namespace
}  // namespace cfc
