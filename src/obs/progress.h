#ifndef CFC_OBS_PROGRESS_H
#define CFC_OBS_PROGRESS_H

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics.h"

namespace cfc::obs {

/// Periodic heartbeat over the MetricRegistry: a background thread wakes
/// every interval, snapshots the registry, and emits one progress line —
/// human-readable to stderr, or one JSON object per line (JSONL) to a
/// file. Reports cells done/total, cumulative states and the states/sec
/// over the last interval, cache hit and sleep-block rates, and the live
/// visited-cache bytes high-water mark.
///
/// The reporter enables the global registry for its lifetime (restoring
/// the previous state on stop), so instrumented code only pays for
/// accounting while someone is listening. Like the tracer, it observes and
/// never steers: study/bench JSON is byte-identical with a reporter
/// running.
class ProgressReporter {
 public:
  struct Options {
    /// JSONL output path; empty emits the human format to stderr.
    std::string path;
    int interval_ms = 500;
  };

  explicit ProgressReporter(Options opts);
  ~ProgressReporter();

  ProgressReporter(const ProgressReporter&) = delete;
  ProgressReporter& operator=(const ProgressReporter&) = delete;

  /// Stops the thread and emits one final heartbeat. Idempotent; the
  /// destructor calls it.
  void stop();

 private:
  void loop();
  void emit();

  Options opts_;
  std::FILE* file_ = nullptr;  ///< owned when opts_.path is non-empty
  bool registry_was_enabled_ = false;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point prev_time_;
  MetricRegistry::Snapshot prev_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool stopped_ = false;
  std::thread thread_;
};

}  // namespace cfc::obs

#endif  // CFC_OBS_PROGRESS_H
