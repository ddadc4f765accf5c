// Real-atomics backend: mutual exclusion holds on hardware, the
// contention-free access counts match the simulator twin, and the backoff
// study machinery works end to end.
#include <gtest/gtest.h>

#include "rt/atomic_memory.h"
#include "rt/contention_study.h"
#include "rt/lamport_fast_rt.h"

namespace cfc::rt {
namespace {

TEST(AtomicMemory, ReadWriteRoundTrip) {
  AtomicMemory mem(4);
  EXPECT_EQ(mem.read(2), 0u);
  mem.write(2, 77);
  EXPECT_EQ(mem.read(2), 77u);
  mem.reset();
  EXPECT_EQ(mem.read(2), 0u);
}

TEST(AtomicMemory, TestAndSetReturnsOld) {
  AtomicMemory mem(1);
  EXPECT_EQ(mem.test_and_set(0), 0u);
  EXPECT_EQ(mem.test_and_set(0), 1u);
  EXPECT_EQ(mem.read(0), 1u);
}

// Solo acquisition costs exactly the paper's seven accesses — the hardware
// twin agrees with the instrumented simulator.
TEST(LamportFastRt, SoloCostsSevenAccesses) {
  AtomicMemory mem(LamportFastRt::registers_needed(4));
  LamportFastRt lock(mem, 4);
  for (int round = 0; round < 3; ++round) {
    const std::uint64_t entry = lock.lock(2);
    const std::uint64_t exit = lock.unlock(2);
    EXPECT_EQ(entry, 5u);
    EXPECT_EQ(exit, 2u);
  }
}

TEST(TasLockRt, SoloCostsTwoAccesses) {
  AtomicMemory mem(1);
  TasLockRt lock(mem);
  EXPECT_EQ(lock.lock(), 1u);
  EXPECT_EQ(lock.unlock(), 1u);
}

class RtStudy : public ::testing::TestWithParam<int> {};

TEST_P(RtStudy, LamportMutualExclusionHolds) {
  ContentionStudyConfig config;
  config.threads = GetParam();
  config.acquisitions_per_thread = 300;
  const ContentionStudyResult res = run_lamport_study(config);
  EXPECT_EQ(res.violations, 0u);
  EXPECT_EQ(res.total_acquisitions,
            static_cast<std::uint64_t>(config.threads) * 300u);
}

TEST_P(RtStudy, LamportWithBackoffMutualExclusionHolds) {
  ContentionStudyConfig config;
  config.threads = GetParam();
  config.acquisitions_per_thread = 300;
  config.backoff = true;
  const ContentionStudyResult res = run_lamport_study(config);
  EXPECT_EQ(res.violations, 0u);
}

TEST_P(RtStudy, TasLockMutualExclusionHolds) {
  ContentionStudyConfig config;
  config.threads = GetParam();
  config.acquisitions_per_thread = 300;
  const ContentionStudyResult res = run_tas_study(config);
  EXPECT_EQ(res.violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(Threads, RtStudy, ::testing::Values(1, 2, 4),
                         [](const ::testing::TestParamInfo<int>& pinfo) {
                           std::string label = "t";
                           label += std::to_string(pinfo.param);
                           return label;
                         });

TEST(RtStudy, SoloMeanAccessesIsSeven) {
  ContentionStudyConfig config;
  config.threads = 1;
  config.acquisitions_per_thread = 500;
  const ContentionStudyResult res = run_lamport_study(config);
  EXPECT_DOUBLE_EQ(res.mean_accesses, 7.0);
}

TEST(LamportFastRt, RejectsTooSmallMemory) {
  AtomicMemory mem(3);
  EXPECT_THROW(LamportFastRt(mem, 4), std::invalid_argument);
}

}  // namespace
}  // namespace cfc::rt
