// The observability layer (src/obs/): the metric registry against a plain
// map oracle (including a multi-threaded shard-merge determinism check),
// the scoped-span tracer's Chrome trace-event output (must parse and
// nest), and the trace validator's rejection of malformed payloads.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace cfc::obs {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// A fresh registry per test: the global one is shared process state.
class MetricsTest : public ::testing::Test {
 protected:
  MetricRegistry reg_;
};

TEST_F(MetricsTest, MatchesMapOracleSingleThread) {
  reg_.set_enabled(true);
  std::map<Metric, std::uint64_t> oracle;
  std::mt19937_64 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const auto m = static_cast<Metric>(rng() % kMetricCount);
    const std::uint64_t v = rng() % 1000;
    if (metric_desc(m).kind == MetricKind::Counter) {
      reg_.add(m, v);
      oracle[m] += v;
    } else {
      reg_.set(m, v);
      oracle[m] = v;
    }
  }
  const MetricRegistry::Snapshot snap = reg_.snapshot();
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    const auto m = static_cast<Metric>(i);
    EXPECT_EQ(snap.value(m), oracle[m]) << metric_desc(m).name;
  }
}

TEST_F(MetricsTest, CounterShardsMergeToExactTotalAcrossThreads) {
  reg_.set_enabled(true);
  // Each worker adds a known arithmetic series; the shard-summed snapshot
  // must equal the closed form regardless of shard assignment, at every
  // thread count the CI determinism gate uses.
  for (const int threads : {1, 2, 4, 8}) {
    reg_.reset();
    constexpr std::uint64_t kPerThread = 5000;
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([this] {
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          reg_.add(Metric::states_visited, 2);
          reg_.add(Metric::cache_hits, 1);
        }
      });
    }
    for (std::thread& th : pool) {
      th.join();
    }
    const MetricRegistry::Snapshot snap = reg_.snapshot();
    const auto n = static_cast<std::uint64_t>(threads);
    EXPECT_EQ(snap.value(Metric::states_visited), 2 * kPerThread * n)
        << "threads=" << threads;
    EXPECT_EQ(snap.value(Metric::cache_hits), kPerThread * n)
        << "threads=" << threads;
  }
}

TEST_F(MetricsTest, DisabledRegistryIsInert) {
  EXPECT_FALSE(reg_.enabled());
  reg_.set_enabled(true);
  reg_.add(Metric::states_visited, 5);
  reg_.set(Metric::visited_live_bytes, 100);
  reg_.set_max(Metric::visited_live_bytes, 50);  // max keeps the larger value
  const MetricRegistry::Snapshot snap = reg_.snapshot();
  EXPECT_EQ(snap.value(Metric::states_visited), 5u);
  EXPECT_EQ(snap.value(Metric::visited_live_bytes), 100u);
  reg_.reset();
  EXPECT_EQ(reg_.snapshot().value(Metric::states_visited), 0u);
}

TEST(Trace, SpansWriteValidChromeTraceJson) {
  const std::string path = ::testing::TempDir() + "obs_trace_basic.json";
  Tracer::start(path);
  {
    const TraceSpan outer("outer");
    {
      const TraceSpan inner("inner");
    }
    {
      const TraceSpan inner2("inner2");
    }
  }
  // A second thread records into its own buffer (distinct tid).
  std::thread([] { const TraceSpan t("worker"); }).join();
  ASSERT_TRUE(Tracer::stop());

  const std::string payload = read_file(path);
  EXPECT_NE(payload.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(payload.find("\"outer\""), std::string::npos);
  EXPECT_NE(payload.find("\"worker\""), std::string::npos);
  std::vector<std::string> errors;
  EXPECT_TRUE(check_trace_json(payload, &errors));
  EXPECT_TRUE(errors.empty());
  std::remove(path.c_str());
}

TEST(Trace, NullNameSkipsRecordingAndOffCostsNothing) {
  // No active tracer: spans are inert.
  {
    const TraceSpan t("ignored");
  }
  const std::string path = ::testing::TempDir() + "obs_trace_skip.json";
  Tracer::start(path);
  {
    const TraceSpan sampled_out(nullptr);  // the sampling hook
    const TraceSpan kept("kept");
  }
  ASSERT_TRUE(Tracer::stop());
  const std::string payload = read_file(path);
  EXPECT_NE(payload.find("\"kept\""), std::string::npos);
  EXPECT_EQ(payload.find("\"ignored\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(Trace, ValidatorRejectsMalformedPayloads) {
  std::vector<std::string> errors;
  EXPECT_FALSE(check_trace_json("not json", &errors));
  EXPECT_FALSE(check_trace_json("[]", nullptr));
  EXPECT_FALSE(check_trace_json("{}", nullptr));
  EXPECT_FALSE(check_trace_json(
      R"({"traceEvents": [{"ph": "B", "name": "x", "ts": 0, "dur": 1, "pid": 1, "tid": 1}]})",
      nullptr));
  // Nesting past json::kMaxDepth is rejected, not a stack overflow.
  std::string deep_object;
  for (int i = 0; i < 100000; ++i) {
    deep_object += "{\"a\":";
  }
  EXPECT_FALSE(check_trace_json(std::string(100000, '['), &errors));
  EXPECT_FALSE(check_trace_json(deep_object, &errors));
  // A negative duration is not an unsigned integer.
  EXPECT_FALSE(check_trace_json(
      R"({"traceEvents": [{"ph": "X", "name": "x", "ts": 0, "dur": -1, "pid": 1, "tid": 1}]})",
      nullptr));
  // Partial overlap within one tid: [0,10) vs [5,15) cannot nest.
  EXPECT_FALSE(check_trace_json(
      R"({"traceEvents": [
        {"name": "a", "cat": "c", "ph": "X", "ts": 0, "dur": 10, "pid": 1, "tid": 1},
        {"name": "b", "cat": "c", "ph": "X", "ts": 5, "dur": 10, "pid": 1, "tid": 1}
      ]})",
      &errors));
  // The same two spans on different tids are independent: valid.
  EXPECT_TRUE(check_trace_json(
      R"({"traceEvents": [
        {"name": "a", "cat": "c", "ph": "X", "ts": 0, "dur": 10, "pid": 1, "tid": 1},
        {"name": "b", "cat": "c", "ph": "X", "ts": 5, "dur": 10, "pid": 1, "tid": 2}
      ]})",
      nullptr));
}

}  // namespace
}  // namespace cfc::obs
