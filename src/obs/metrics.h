#ifndef CFC_OBS_METRICS_H
#define CFC_OBS_METRICS_H

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace cfc::obs {

/// The one enumeration every live counter flows through: the explorer's
/// hot-path flushes, the Campaign's cell accounting, and the progress
/// reporter all speak Metric — adding a counter here makes it visible to
/// the heartbeat (and to anything else snapshotting the registry) without
/// touching the intermediate layers. Counters are monotonic sums over
/// per-shard cells; gauges are last-write point-in-time values.
///
/// X-macro: X(enumerator, "json_name", kind). `steals` has no producer;
/// it stays (reading 0) because certbench's `explorer.steals` row reads it.
#define CFC_OBS_METRICS(X)                       \
  X(states_visited, "states_visited", Counter)   \
  X(cells_total, "cells_total", Gauge)           \
  X(cells_done, "cells_done", Counter)           \
  X(cache_hits, "cache_hits", Counter)           \
  X(sleep_blocked, "sleep_blocked", Counter)     \
  X(races_detected, "races_detected", Counter)   \
  X(backtrack_points, "backtrack_points", Counter) \
  X(restore_marks, "restore_marks", Counter)     \
  X(work_items, "work_items", Counter)           \
  X(steals, "steals", Counter)                   \
  X(restores, "restores", Counter)               \
  X(visited_live_bytes, "visited_live_bytes", Gauge)

enum class Metric : std::uint32_t {
#define CFC_OBS_METRIC_ENUM(id, name, kind) id,
  CFC_OBS_METRICS(CFC_OBS_METRIC_ENUM)
#undef CFC_OBS_METRIC_ENUM
      kCount
};

inline constexpr std::size_t kMetricCount =
    static_cast<std::size_t>(Metric::kCount);

enum class MetricKind : std::uint8_t { Counter, Gauge };

struct MetricDesc {
  const char* name;
  MetricKind kind;
};

[[nodiscard]] const MetricDesc& metric_desc(Metric m);

/// Process-wide registry of live counters, sharded per thread so hot-path
/// increments never contend on one cache line. Disabled (the default) it
/// costs one relaxed load per flush attempt; instrumented code gates on
/// enabled() before doing any accounting work.
///
/// Determinism: counters are summed over shards with unsigned 64-bit
/// wraparound arithmetic, so a snapshot's totals are independent of which
/// thread contributed what. The registry feeds the *progress reporter
/// only* — study/bench JSON values never read it — so enabling it cannot
/// change any canonical output.
class MetricRegistry {
 public:
  MetricRegistry();

  static MetricRegistry& global();

  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Counter increment (relaxed, on the calling thread's shard).
  void add(Metric m, std::uint64_t delta);

  /// Gauge write (last write wins; one slot, not sharded).
  void set(Metric m, std::uint64_t value);

  /// Gauge max-update: keeps the largest value seen (for high-water marks
  /// written concurrently by several workers).
  void set_max(Metric m, std::uint64_t value);

  struct Snapshot {
    std::array<std::uint64_t, kMetricCount> values{};

    [[nodiscard]] std::uint64_t value(Metric m) const {
      return values[static_cast<std::size_t>(m)];
    }
  };

  /// Shard-summed counters + gauge values, readable at any time.
  [[nodiscard]] Snapshot snapshot() const;

  /// Zeroes every shard and gauge (test/setup helper; racy against
  /// concurrent writers only in the trivial lost-update sense).
  void reset();

  static constexpr std::size_t kShards = 32;

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kMetricCount> v{};
  };

  [[nodiscard]] Shard& my_shard();

  std::array<Shard, kShards> shards_;
  std::array<std::atomic<std::uint64_t>, kMetricCount> gauges_{};
  std::atomic<bool> enabled_{false};
};

}  // namespace cfc::obs

#endif  // CFC_OBS_METRICS_H
