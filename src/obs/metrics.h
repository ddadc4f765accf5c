#ifndef CFC_OBS_METRICS_H
#define CFC_OBS_METRICS_H

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace cfc::obs {

/// The search counters: the one definition of every count an Explorer
/// search keeps, X(name). From this list come the ExploreStats u64
/// members and their merge/flush table (analysis/explorer.h), and the
/// first Metric enumerators below, so a search's registry totals and its
/// ExploreStats are the same counters under the same names. All of them
/// are thread-count invariant.
///
///  * states_visited: DFS nodes entered (planner + work items); Random:
///    units stepped.
///  * runs_completed / runs_truncated: leaves with no runnable process /
///    leaves cut by the depth, preemption or state budget.
///  * cache_hits: subtrees the visited cache skipped (SleepCache).
///  * violations: MutualExclusionViolations found.
///  * races_detected / backtrack_points: source-DPOR races found in
///    traces, and the source-set and cut-point insertions they caused
///    (zero when the reduction is Off).
///  * sleep_blocked: enabled branches skipped asleep.
///  * restores: sibling backtracks performed.
///  * value_replayed_steps: units re-fed from the recorded value tapes to
///    processes restored by Sim::rewind_to_mark, at their next step
///    (Sim::value_replayed_units) — no register traffic, no events.
///  * restore_marks: RewindMarks captured at branching nodes.
///  * work_items: horizon subtrees the planner emitted.
#define CFC_SEARCH_COUNTERS(X) \
  X(states_visited)            \
  X(runs_completed)            \
  X(runs_truncated)            \
  X(cache_hits)                \
  X(violations)                \
  X(races_detected)            \
  X(backtrack_points)          \
  X(sleep_blocked)             \
  X(restores)                  \
  X(value_replayed_steps)      \
  X(restore_marks)             \
  X(work_items)

/// The registry rows that are not search counters, X(name, kind): the
/// Campaign's cell accounting, and the visited cache's live bytes — a
/// size, not a count: the largest live cache of any engine run (the
/// planner or one work item), max-updated at every flush; certbench's
/// `cache.live_bytes` row reads it. `steals` has no producer; it stays
/// (reading 0) because certbench's `explorer.steals` row reads it.
#define CFC_OBS_METRICS(X) \
  X(cells_total, Gauge)    \
  X(cells_done, Counter)   \
  X(steals, Counter)       \
  X(visited_live_bytes, Gauge)

/// The one enumeration every live counter flows through: the explorer's
/// hot-path flushes, the Campaign's cell accounting, and the progress
/// reporter all speak Metric. Counters are monotonic sums over per-shard
/// cells; gauges are last-write point-in-time values. A row's JSON name
/// is its enumerator's name.
enum class Metric : std::uint32_t {
#define CFC_OBS_METRIC_ENUM(id, ...) id,
  CFC_SEARCH_COUNTERS(CFC_OBS_METRIC_ENUM)
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
