#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "core/json.h"

namespace cfc::obs {

std::atomic<Tracer*> Tracer::active_{nullptr};
std::mutex Tracer::lifecycle_mu_;
std::string Tracer::path_;

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {
  static std::atomic<std::uint64_t> next_generation{1};
  generation_ = next_generation.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::start(std::string path) {
  const std::lock_guard<std::mutex> lock(lifecycle_mu_);
  Tracer* old = active_.exchange(nullptr, std::memory_order_acq_rel);
  delete old;  // discard an abandoned recording
  path_ = std::move(path);
  active_.store(new Tracer(), std::memory_order_release);
}

bool Tracer::stop() {
  const std::lock_guard<std::mutex> lock(lifecycle_mu_);
  Tracer* tracer = active_.exchange(nullptr, std::memory_order_acq_rel);
  if (tracer == nullptr) {
    return false;
  }
  const bool ok = tracer->write(path_);
  delete tracer;
  return ok;
}

Tracer::ThreadBuffer& Tracer::buffer_for_this_thread() {
  // Per-thread cache keyed on the owning tracer's generation (never its
  // address — see generation_), so buffers registered under an earlier
  // recording are never written into by mistake.
  struct Cache {
    std::uint64_t generation = 0;
    ThreadBuffer* buf = nullptr;
  };
  thread_local Cache cache;
  if (cache.generation != generation_) {
    const std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    cache.generation = generation_;
    cache.buf = buffers_.back().get();
  }
  return *cache.buf;
}

void Tracer::record(const char* name, const char* cat,
                    std::chrono::steady_clock::time_point begin,
                    std::chrono::steady_clock::time_point end) {
  Event ev;
  ev.name = name;
  ev.cat = cat;
  ev.ts_us = std::chrono::duration_cast<std::chrono::microseconds>(
                 begin - epoch_)
                 .count();
  ev.dur_us =
      std::chrono::duration_cast<std::chrono::microseconds>(end - begin)
          .count();
  if (ev.ts_us < 0) {
    ev.ts_us = 0;  // span began before start(): clamp rather than confuse
  }
  if (ev.dur_us < 0) {
    ev.dur_us = 0;
  }
  buffer_for_this_thread().events.push_back(ev);
}

bool Tracer::write(const std::string& path) {
  // stop() holds the lifecycle lock and has already unpublished `this`,
  // but spans constructed before the unpublish may still be live; take the
  // registration lock so their buffer lookups cannot race the write. (A
  // span destructing mid-write can still lose its event — acceptable for
  // a flight recorder being torn down.)
  const std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  char buf[256];
  for (std::size_t t = 0; t < buffers_.size(); ++t) {
    for (const Event& ev : buffers_[t]->events) {
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                    "\"ts\": %lld, \"dur\": %lld, \"pid\": 1, \"tid\": %zu}",
                    first ? "" : ",", ev.name, ev.cat,
                    static_cast<long long>(ev.ts_us),
                    static_cast<long long>(ev.dur_us), t + 1);
      out += buf;
      first = false;
    }
  }
  out += "\n]}\n";
  if (std::FILE* fp = std::fopen(path.c_str(), "w")) {
    std::fwrite(out.data(), 1, out.size(), fp);
    std::fclose(fp);
    return true;
  }
  std::fprintf(stderr, "cfc: could not write trace file %s\n", path.c_str());
  return false;
}

bool check_trace_json(const std::string& payload,
                      std::vector<std::string>* errors) {
  const auto note = [&](std::string msg) {
    if (errors != nullptr) {
      errors->push_back(std::move(msg));
    }
  };
  json::Node root;
  try {
    root = json::parse(payload);
  } catch (const std::invalid_argument& e) {
    note(std::string("not valid JSON: ") + e.what());
    return false;
  }
  if (!root.is_object()) {
    note("top level is not an object");
    return false;
  }
  const json::Node* events = root.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    note("missing traceEvents array");
    return false;
  }

  struct Span {
    std::int64_t ts;
    std::int64_t end;
  };
  std::map<std::int64_t, std::vector<Span>> by_tid;
  bool ok = true;
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const json::Node& ev = events->array[i];
    const std::string at = "event " + std::to_string(i);
    if (!ev.is_object()) {
      note(at + ": not an object");
      ok = false;
      continue;
    }
    try {
      if (json::to_string_field(json::member(ev, "ph")) != "X") {
        note(at + ": ph is not \"X\"");
        ok = false;
        continue;
      }
      if (json::to_string_field(json::member(ev, "name")).empty()) {
        note(at + ": empty name");
        ok = false;
      }
      const std::int64_t ts =
          static_cast<std::int64_t>(json::to_u64(json::member(ev, "ts")));
      const std::int64_t dur =
          static_cast<std::int64_t>(json::to_u64(json::member(ev, "dur")));
      const auto tid =
          static_cast<std::int64_t>(json::to_u64(json::member(ev, "tid")));
      (void)json::to_u64(json::member(ev, "pid"));
      by_tid[tid].push_back(Span{ts, ts + dur});
    } catch (const std::invalid_argument& e) {
      note(at + ": " + e.what());
      ok = false;
    }
  }

  // Balanced spans: within a thread, spans sorted by start (ties: longer
  // first, i.e. parent before child) must strictly nest — an event that
  // starts inside the innermost open span must also end inside it.
  for (auto& [tid, spans] : by_tid) {
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.ts != b.ts ? a.ts < b.ts : a.end > b.end;
    });
    std::vector<std::int64_t> open;  // stack of enclosing end times
    for (const Span& s : spans) {
      while (!open.empty() && open.back() <= s.ts) {
        open.pop_back();
      }
      if (!open.empty() && s.end > open.back()) {
        note("tid " + std::to_string(tid) + ": span [" +
             std::to_string(s.ts) + ", " + std::to_string(s.end) +
             ") partially overlaps an enclosing span ending at " +
             std::to_string(open.back()));
        ok = false;
        continue;
      }
      open.push_back(s.end);
    }
  }
  return ok;
}

}  // namespace cfc::obs
