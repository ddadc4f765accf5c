#include "obs/metrics.h"

namespace cfc::obs {

namespace {

constexpr std::array<MetricDesc, kMetricCount> kDescs = {{
#define CFC_SEARCH_COUNTER_DESC(id) MetricDesc{#id, MetricKind::Counter},
#define CFC_OBS_METRIC_DESC(id, kind) MetricDesc{#id, MetricKind::kind},
    CFC_SEARCH_COUNTERS(CFC_SEARCH_COUNTER_DESC)
    CFC_OBS_METRICS(CFC_OBS_METRIC_DESC)
#undef CFC_OBS_METRIC_DESC
#undef CFC_SEARCH_COUNTER_DESC
}};

}  // namespace

const MetricDesc& metric_desc(Metric m) {
  return kDescs[static_cast<std::size_t>(m)];
}

MetricRegistry::MetricRegistry() = default;

MetricRegistry& MetricRegistry::global() {
  static MetricRegistry registry;
  return registry;
}

MetricRegistry::Shard& MetricRegistry::my_shard() {
  // Threads claim shard indices round-robin on first use; with kShards a
  // power of two well above typical pool sizes, collisions are rare and
  // harmless (relaxed adds on a shared shard stay correct, just contended).
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t mine =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shards_[mine];
}

void MetricRegistry::add(Metric m, std::uint64_t delta) {
  my_shard().v[static_cast<std::size_t>(m)].fetch_add(
      delta, std::memory_order_relaxed);
}

void MetricRegistry::set(Metric m, std::uint64_t value) {
  gauges_[static_cast<std::size_t>(m)].store(value,
                                             std::memory_order_relaxed);
}

void MetricRegistry::set_max(Metric m, std::uint64_t value) {
  std::atomic<std::uint64_t>& slot = gauges_[static_cast<std::size_t>(m)];
  std::uint64_t cur = slot.load(std::memory_order_relaxed);
  while (value > cur &&
         !slot.compare_exchange_weak(cur, value,
                                     std::memory_order_relaxed)) {
  }
}

MetricRegistry::Snapshot MetricRegistry::snapshot() const {
  Snapshot snap;
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    if (kDescs[m].kind == MetricKind::Gauge) {
      snap.values[m] = gauges_[m].load(std::memory_order_relaxed);
    } else {
      std::uint64_t total = 0;
      for (const Shard& shard : shards_) {
        total += shard.v[m].load(std::memory_order_relaxed);
      }
      snap.values[m] = total;
    }
  }
  return snap;
}

void MetricRegistry::reset() {
  for (Shard& shard : shards_) {
    for (auto& cell : shard.v) {
      cell.store(0, std::memory_order_relaxed);
    }
  }
  for (auto& gauge : gauges_) {
    gauge.store(0, std::memory_order_relaxed);
  }
}

}  // namespace cfc::obs
