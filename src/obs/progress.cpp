#include "obs/progress.h"

#include <utility>

namespace cfc::obs {

ProgressReporter::ProgressReporter(Options opts)
    : opts_(std::move(opts)),
      start_(std::chrono::steady_clock::now()),
      prev_time_(start_) {
  if (opts_.interval_ms < 1) {
    opts_.interval_ms = 1;
  }
  if (!opts_.path.empty()) {
    file_ = std::fopen(opts_.path.c_str(), "w");
    if (file_ == nullptr) {
      std::fprintf(stderr, "cfc: could not open progress file %s\n",
                   opts_.path.c_str());
    }
  }
  MetricRegistry& registry = MetricRegistry::global();
  registry_was_enabled_ = registry.enabled();
  registry.set_enabled(true);
  prev_ = registry.snapshot();
  thread_ = std::thread([this] { loop(); });
}

ProgressReporter::~ProgressReporter() { stop(); }

void ProgressReporter::stop() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) {
      return;
    }
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
  emit();  // final heartbeat with the end-of-run totals
  MetricRegistry::global().set_enabled(registry_was_enabled_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  const std::lock_guard<std::mutex> lock(mu_);
  stopped_ = true;
}

void ProgressReporter::loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    cv_.wait_for(lock, std::chrono::milliseconds(opts_.interval_ms));
    if (stopping_) {
      break;
    }
    lock.unlock();
    emit();
    lock.lock();
  }
}

void ProgressReporter::emit() {
  const MetricRegistry::Snapshot snap = MetricRegistry::global().snapshot();
  const auto now = std::chrono::steady_clock::now();
  const double ms_total =
      std::chrono::duration<double, std::milli>(now - start_).count();
  const double ms_delta =
      std::chrono::duration<double, std::milli>(now - prev_time_).count();

  const std::uint64_t states = snap.value(Metric::states_visited);
  const std::uint64_t states_delta =
      states - prev_.value(Metric::states_visited);
  const double states_per_sec =
      ms_delta > 0.0 ? 1000.0 * static_cast<double>(states_delta) / ms_delta
                     : 0.0;
  const std::uint64_t cache_hits = snap.value(Metric::cache_hits);
  const std::uint64_t sleep_blocked = snap.value(Metric::sleep_blocked);
  // Rates per visited node: how often the caches/sleep sets cut a branch.
  const double denom = states > 0 ? static_cast<double>(states) : 1.0;
  const double cache_rate = static_cast<double>(cache_hits) / denom;
  const double sleep_rate = static_cast<double>(sleep_blocked) / denom;

  if (file_ != nullptr) {
    std::fprintf(
        file_,
        "{\"ms\": %.1f, \"cells_done\": %llu, \"cells_total\": %llu, "
        "\"states\": %llu, \"states_per_sec\": %.1f, "
        "\"cache_hits\": %llu, \"cache_hit_rate\": %.4f, "
        "\"sleep_blocked\": %llu, \"sleep_blocked_rate\": %.4f, "
        "\"visited_live_bytes\": %llu}\n",
        ms_total,
        static_cast<unsigned long long>(snap.value(Metric::cells_done)),
        static_cast<unsigned long long>(snap.value(Metric::cells_total)),
        static_cast<unsigned long long>(states), states_per_sec,
        static_cast<unsigned long long>(cache_hits), cache_rate,
        static_cast<unsigned long long>(sleep_blocked), sleep_rate,
        static_cast<unsigned long long>(
            snap.value(Metric::visited_live_bytes)));
    std::fflush(file_);
  } else if (opts_.path.empty()) {
    std::fprintf(
        stderr,
        "[cfc] t=%.1fs cells %llu/%llu states %llu (%.0f/s) "
        "cache-hit %.1f%% sleep-block %.1f%% visited %llu B\n",
        ms_total / 1000.0,
        static_cast<unsigned long long>(snap.value(Metric::cells_done)),
        static_cast<unsigned long long>(snap.value(Metric::cells_total)),
        static_cast<unsigned long long>(states), states_per_sec,
        100.0 * cache_rate, 100.0 * sleep_rate,
        static_cast<unsigned long long>(
            snap.value(Metric::visited_live_bytes)));
  }
  prev_ = snap;
  prev_time_ = now;
}

}  // namespace cfc::obs
