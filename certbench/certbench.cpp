// certbench — the certification benchmark program.
//
// Runs one named workload — a fixed Campaign of studies — through the
// public Study/Campaign API on one ExperimentRunner, checks every
// certified value against the pinned expectations in expected.json, and
// prints one JSON object (the last line of stdout) with the end-to-end
// metrics (untraced reps) or the per-layer metrics (one traced rep plus
// layer probes). run.py builds this program, measures set-up time from
// outside, and turns the object into the benchmark's result line.
//
// Usage:
//   certbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--threads <k>] [--expected <file>] [--trace-out <file>]
//   certbench --workload <name> --seed <n> --setup-only
//   certbench --regen <file>
//
// `--seconds 0 --trace 0` runs exactly one rep.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/study.h"
#include "analysis/visited_table.h"
#include "core/algorithm_registry.h"
#include "core/json.h"
#include "core/state_fingerprint.h"
#include "core/streaming_measures.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "por/dependence.h"
#include "por/source_dpor.h"

#ifndef CERTBENCH_COMPILER
#define CERTBENCH_COMPILER "unknown"
#endif
#ifndef CERTBENCH_BUILD_TYPE
#define CERTBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace cfc;
using SteadyClock = std::chrono::steady_clock;

// ------------------------------------------------------------ utilities

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// `count` schedule seeds derived from the benchmark seed; `stream`
/// separates independent uses of one benchmark seed.
std::vector<std::uint64_t> derive_seeds(std::uint64_t seed,
                                        std::uint64_t stream, int count) {
  std::uint64_t state = seed ^ (stream * 0xd1b54a32d192ed03ULL);
  std::vector<std::uint64_t> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(splitmix64(state));
  }
  return out;
}

double elapsed_s(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

/// CLOCK_MONOTONIC in seconds — the clock Python's time.monotonic() reads,
/// so run.py can time process start to the first Campaign::run.
double monotonic_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// User + system CPU time of the whole process (all threads).
double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ------------------------------------------------------------ workloads

const std::vector<std::string> kMutexFamilies = {
    "kessels-tree", "lamport-fast",  "lamport-packed", "peterson-tree",
    "tas-lock",     "thm3-exact-l2", "thm3-paper-l2"};
const std::vector<std::string> kNamingSubjects = {
    "taf-tree",        "tar-read-search", "tar-scan",
    "tas-read-search", "tas-scan",        "tas-tar-tree"};
const std::vector<std::string> kDetectors = {
    "splitter-tree-full", "splitter-tree-l1", "splitter-tree-l2",
    "splitter-tree-l4"};

/// How a study's values are checked.
enum class Expect : std::uint8_t {
  Pinned,          ///< equal to the pinned record in expected.json
  BelowCertified,  ///< a sampled search: never above its certified twin
};

struct Study {
  std::string key;  ///< identity of the measurement; expected.json key
  StudySpec spec;
  Expect expect = Expect::Pinned;
  std::size_t certified_twin = 0;  ///< BelowCertified: index of the bound
  /// Paper Table 1 constant for the certified entry registers (-1: none).
  int table1_entry_regs = -1;
};

/// One subject the layer probes drive: stepped along seeded random
/// interleavings (a DFS subject) or sequentially, one process after the
/// other (a contention-free subject).
struct ProbeSubject {
  std::string subject;
  StudyKind kind = StudyKind::Mutex;
  int n = 2;
  int depth = 14;
  bool sequential = false;
};

struct Workload {
  std::string name;
  std::vector<Study> studies;
  std::vector<ProbeSubject> probes;
};

std::string key_of(const char* what, const std::string& subject, int n,
                   const std::string& extra = {}) {
  std::string k =
      std::string(what) + '|' + subject + "|n=" + std::to_string(n);
  if (!extra.empty()) {
    k += '|' + extra;
  }
  return k;
}

/// `oracle` builds the reference variant expected.json is generated from:
/// Exhaustive searches run unreduced (ReductionPolicy::Off, no source-DPOR
/// and no sleep-set cache) and naming batteries drop their seeded random
/// schedules, leaving the deterministic floor. certify-frontier has no
/// feasible unreduced oracle at n=5..6; its pins come from the default
/// engine and are documented in README.md.
Workload build_workload(const std::string& name, std::uint64_t seed,
                        bool oracle) {
  Workload w;
  w.name = name;
  const auto exhaustive = [oracle](const std::string& subject, StudyKind kind,
                                   int n, int depth, bool allow_oracle) {
    StudySpec spec = StudySpec::of(subject)
                         .kind(kind)
                         .n(n)
                         .worst_case(SearchStrategy::Exhaustive)
                         .depth(depth);
    if (oracle && allow_oracle) {
      spec.reduction(ReductionPolicy::Off);
    }
    return spec;
  };
  const auto add = [&w](std::string key, StudySpec spec) -> std::size_t {
    Study s;
    s.key = std::move(key);
    s.spec = std::move(spec);
    w.studies.push_back(std::move(s));
    return w.studies.size() - 1;
  };

  if (name == "certify-frontier") {
    struct Cell {
      const char* subject;
      int n;
      int depth;
    };
    for (const Cell& c : {Cell{"peterson-tree", 6, 14},
                          Cell{"kessels-tree", 6, 14}, Cell{"tas-lock", 5, 14},
                          Cell{"lamport-fast", 5, 12}}) {
      add(key_of("ex", c.subject, c.n, "d=" + std::to_string(c.depth)),
          exhaustive(c.subject, StudyKind::Mutex, c.n, c.depth, false));
      w.probes.push_back({c.subject, StudyKind::Mutex, c.n, c.depth, false});
    }
  } else if (name == "certify-sweep") {
    const std::vector<std::uint64_t> seeds = derive_seeds(seed, 1, 32);
    for (const std::string& fam : kMutexFamilies) {
      for (int n = 2; n <= 4; ++n) {
        // n = 2 runs at d12: from d13 on, source-dpor certifies the
        // fast-path families (lamport-fast, lamport-packed, thm3-exact-l2)
        // below the unreduced oracle (README.md, "Known engine gap").
        const int depth = n == 2 ? 12 : (n == 4 ? 10 : 14);
        const std::string d = "d=" + std::to_string(depth);
        const std::size_t ex = add(key_of("ex", fam, n, d),
                                   exhaustive(fam, StudyKind::Mutex, n, depth,
                                              true));
        const std::size_t rnd =
            add(key_of("rnd", fam, n, d),
                StudySpec::of(fam)
                    .kind(StudyKind::Mutex)
                    .n(n)
                    .worst_case(SearchStrategy::Random)
                    .seeds(seeds)
                    .budget(static_cast<std::uint64_t>(depth)));
        w.studies[rnd].expect = Expect::BelowCertified;
        w.studies[rnd].certified_twin = ex;
      }
      w.probes.push_back({fam, StudyKind::Mutex, 3, 14, false});
    }
    const std::size_t peterson_2p =
        add(key_of("ex", "peterson-2p", 2, "d=20"),
            exhaustive("peterson-2p", StudyKind::Mutex, 2, 20, true));
    add(key_of("ex", "kessels-2p", 2, "d=20"),
        exhaustive("kessels-2p", StudyKind::Mutex, 2, 20, true));
    for (const std::string& det : kDetectors) {
      for (int n = 2; n <= 4; ++n) {
        add(key_of("det", det, n, "d=24"),
            exhaustive(det, StudyKind::Detector, n, 24, true)
                .contention_free());
      }
    }
    struct Crash {
      const char* subject;
      std::uint64_t after;
    };
    for (const Crash& c : {Crash{"peterson-tree", 2}, Crash{"tas-lock", 1},
                           Crash{"lamport-fast", 3}}) {
      add(key_of("crash", c.subject, 3,
                 "d=14|after=" + std::to_string(c.after)),
          exhaustive(c.subject, StudyKind::Mutex, 3, 14, true)
              .crash({c.after}));
    }
    struct Bounded {
      const char* subject;
      int n;
    };
    for (const Bounded& b :
         {Bounded{"peterson-tree", 3}, Bounded{"kessels-tree", 3},
          Bounded{"lamport-fast", 3}, Bounded{"tas-lock", 3},
          Bounded{"peterson-tree", 4}, Bounded{"kessels-tree", 4}}) {
      ExploreLimits limits;
      limits.max_depth = 24;
      limits.max_preemptions = 2;
      add(key_of("bnd", b.subject, b.n, "d=24|p=2"),
          StudySpec::of(b.subject)
              .kind(StudyKind::Mutex)
              .n(b.n)
              .worst_case(SearchStrategy::Bounded)
              .limits(limits));
    }
    // Two exact duplicates — the first family cell and peterson-2p: the
    // campaign must serve them from the tasks planned for the originals.
    for (const std::size_t dup : {std::size_t{0}, peterson_2p}) {
      const Study copy = w.studies[dup];
      add(copy.key, copy.spec);
    }
  } else if (name == "paper-tables") {
    for (const std::string& fam : kMutexFamilies) {
      for (const int n : {64, 256, 1024}) {
        add(key_of("cf", fam, n),
            StudySpec::of(fam).kind(StudyKind::Mutex).n(n).contention_free());
      }
      w.probes.push_back({fam, StudyKind::Mutex, 64, 4096, true});
    }
    const std::vector<std::uint64_t> seeds =
        oracle ? std::vector<std::uint64_t>{} : derive_seeds(seed, 2, 8);
    for (const std::string& nm : kNamingSubjects) {
      for (const int n : {64, 256}) {
        add(key_of("naming", nm, n), StudySpec::of(nm)
                                         .kind(StudyKind::Naming)
                                         .n(n)
                                         .contention_free()
                                         .worst_case()
                                         .seeds(seeds));
      }
      w.probes.push_back({nm, StudyKind::Naming, 64, 4096, true});
    }
    // Table 1 register rows at n = 2: certified worst-case entry registers
    // are 3 for Peterson (its three bits) and 1 for the TAS lock.
    for (const auto& [subject, regs] :
         {std::pair<const char*, int>{"peterson-2p", 3}, {"tas-lock", 1}}) {
      const std::size_t i = add(key_of("ex", subject, 2, "d=20"),
                                exhaustive(subject, StudyKind::Mutex, 2, 20,
                                           true));
      w.studies[i].table1_entry_regs = regs;
      w.probes.push_back({subject, StudyKind::Mutex, 2, 20, false});
    }
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

const std::vector<std::string> kWorkloads = {"certify-frontier",
                                             "certify-sweep", "paper-tables"};

// ------------------------------------------------------ expected values

/// Pinned record of one study: the values it certifies, as the Off oracle
/// (or, for certify-frontier, the default engine) measured them.
std::string pin_record(const Study& s, const StudyResult& r) {
  const auto pair = [](const ComplexityReport& c) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "[%d, %d]", c.steps, c.registers);
    return std::string(buf);
  };
  std::string out = "{";
  const auto field = [&out](const std::string& k, const std::string& v) {
    if (out.size() > 1) {
      out += ", ";
    }
    out += "\"" + k + "\": " + v;
  };
  switch (s.spec.study_kind) {
    case StudyKind::Mutex:
      if (s.spec.want_cf) {
        field("cf", pair(r.cf));
        field("cf_entry", pair(r.cf_entry));
        field("cf_exit", pair(r.cf_exit));
      }
      if (s.spec.want_wc) {
        field("wc_entry", pair(r.wc_entry));
        field("wc_exit", pair(r.wc_exit));
      }
      break;
    case StudyKind::Detector:
      field("cf", pair(r.cf));
      field("wc", pair(r.wc));
      break;
    case StudyKind::Naming:
      field("cf", pair(r.cf));
      field("wc_floor", pair(r.wc));
      break;
  }
  if (s.spec.want_wc && s.spec.study_kind != StudyKind::Naming) {
    field("certified", r.certified ? "true" : "false");
    field("violating", r.violations > 0 ? "true" : "false");
  }
  return out + "}";
}

using Pins = std::map<std::string, json::Node>;

Pins load_pins(const std::string& path) {
  const json::Node root = json::parse(read_file(path));
  if (json::to_string_field(json::member(root, "schema")) !=
      "certbench.expected.v1") {
    throw std::invalid_argument(path + ": unexpected schema");
  }
  return json::member(root, "studies").object;
}

/// Appends every way `r` disagrees with what `s` must certify.
void check_study(const Study& s, const StudyResult& r, const Pins& pins,
                 const std::vector<StudyResult>& all,
                 std::vector<std::string>& problems) {
  const auto bad = [&](const std::string& what) {
    problems.push_back(s.key + ": " + what);
  };
  const auto same = [&](const char* what, const ComplexityReport& got,
                        const json::Node& want) {
    const int ws = json::to_int(want.array.at(0));
    const int wr = json::to_int(want.array.at(1));
    if (got.steps != ws || got.registers != wr) {
      bad(std::string(what) + " = [" + std::to_string(got.steps) + ", " +
          std::to_string(got.registers) + "], expected [" +
          std::to_string(ws) + ", " + std::to_string(wr) + "]");
    }
  };
  if (s.table1_entry_regs >= 0 &&
      r.wc_entry.registers != s.table1_entry_regs) {
    bad("Table 1 entry registers = " + std::to_string(r.wc_entry.registers) +
        ", paper value " + std::to_string(s.table1_entry_regs));
  }
  if (s.expect == Expect::BelowCertified) {
    const StudyResult& c = all.at(s.certified_twin);
    if (r.certified) {
      bad("a sampled search reports certified");
    }
    if (r.wc_entry.steps > c.wc_entry.steps ||
        r.wc_entry.registers > c.wc_entry.registers ||
        r.wc_exit.steps > c.wc_exit.steps ||
        r.wc_exit.registers > c.wc_exit.registers) {
      bad("sampled maxima exceed the certified maxima");
    }
    return;
  }
  const auto it = pins.find(s.key);
  if (it == pins.end()) {
    bad("no pinned expectation");
    return;
  }
  const json::Node& pin = it->second;
  for (const auto& [name, report] :
       {std::pair<const char*, const ComplexityReport*>{"cf", &r.cf},
        {"cf_entry", &r.cf_entry},
        {"cf_exit", &r.cf_exit},
        {"wc_entry", &r.wc_entry},
        {"wc_exit", &r.wc_exit},
        {"wc", &r.wc}}) {
    if (const json::Node* want = pin.find(name)) {
      same(name, *report, *want);
    }
  }
  if (const json::Node* floor = pin.find("wc_floor")) {
    const int fs = json::to_int(floor->array.at(0));
    const int fr = json::to_int(floor->array.at(1));
    if (r.wc.steps < fs || r.wc.registers < fr || r.wc.steps < r.cf.steps) {
      bad("naming worst case below the deterministic battery");
    }
  }
  if (const json::Node* cert = pin.find("certified")) {
    if (r.certified != json::to_bool(*cert)) {
      bad(std::string("certified = ") + (r.certified ? "true" : "false"));
    }
  }
  if (const json::Node* viol = pin.find("violating")) {
    if ((r.violations > 0) != json::to_bool(*viol)) {
      bad("violations = " + std::to_string(r.violations));
    }
  }
}

// ------------------------------------------------- deterministic counts

/// The counters the engine promises to repeat exactly (across reps and
/// runner thread counts), summed over the workload.
struct Counts {
  std::uint64_t states = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t races_detected = 0;
  std::uint64_t backtrack_points = 0;
  std::uint64_t sleep_blocked = 0;
  std::uint64_t work_items = 0;
  std::uint64_t restore_marks = 0;

  bool operator==(const Counts&) const = default;

  [[nodiscard]] std::string to_json() const {
    return "{\"states\": " + std::to_string(states) +
           ", \"cache_hits\": " + std::to_string(cache_hits) +
           ", \"races_detected\": " + std::to_string(races_detected) +
           ", \"backtrack_points\": " + std::to_string(backtrack_points) +
           ", \"sleep_blocked\": " + std::to_string(sleep_blocked) +
           ", \"work_items\": " + std::to_string(work_items) +
           ", \"restore_marks\": " + std::to_string(restore_marks) + "}";
  }
};

Counts count(const std::vector<StudyResult>& results) {
  Counts c;
  for (const StudyResult& r : results) {
    c.states += r.states_visited;
    c.cache_hits += r.cache_hits;
    c.races_detected += r.races_detected;
    c.backtrack_points += r.backtrack_points;
    c.sleep_blocked += r.sleep_blocked;
    c.work_items += r.work_items;
    c.restore_marks += r.restore_marks;
  }
  return c;
}

// ------------------------------------------------------- trace analysis

struct TraceSummary {
  bool valid = false;
  std::vector<std::string> errors;
  std::map<std::string, double> self_ms;  ///< per span name
  /// Thread-time inside the explorer: per tid, the time covered by
  /// explorer.* spans that have no explorer.* ancestor.
  double explorer_ms = 0.0;
};

/// Validates the trace with obs::check_trace_json, then attributes each
/// span's self time: its duration minus the time its direct children
/// cover on the same tid.
TraceSummary analyze_trace(const std::string& payload) {
  TraceSummary out;
  out.valid = obs::check_trace_json(payload, &out.errors);
  if (!out.valid) {
    return out;
  }
  struct Span {
    std::string name;
    std::int64_t ts;
    std::int64_t end;
  };
  std::map<std::int64_t, std::vector<Span>> by_tid;
  const json::Node root = json::parse(payload);
  for (const json::Node& ev : json::member(root, "traceEvents").array) {
    const auto ts =
        static_cast<std::int64_t>(json::to_u64(json::member(ev, "ts")));
    const auto dur =
        static_cast<std::int64_t>(json::to_u64(json::member(ev, "dur")));
    const auto tid =
        static_cast<std::int64_t>(json::to_u64(json::member(ev, "tid")));
    by_tid[tid].push_back(
        Span{json::to_string_field(json::member(ev, "name")), ts, ts + dur});
  }
  const auto is_explorer = [](const std::string& name) {
    return name.rfind("explorer.", 0) == 0;
  };
  for (auto& [tid, spans] : by_tid) {
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.ts != b.ts ? a.ts < b.ts : a.end > b.end;
    });
    struct Open {
      std::size_t index;
      std::int64_t child_us;
      bool in_explorer;  ///< this span or an ancestor is an explorer span
    };
    std::vector<Open> open;
    const auto close = [&](const Open& o) {
      const Span& s = spans[o.index];
      out.self_ms[s.name] +=
          static_cast<double>(s.end - s.ts - o.child_us) * 1e-3;
    };
    for (std::size_t i = 0; i < spans.size(); ++i) {
      while (!open.empty() && spans[open.back().index].end <= spans[i].ts) {
        close(open.back());
        open.pop_back();
      }
      const std::int64_t dur = spans[i].end - spans[i].ts;
      bool inherited = false;
      if (!open.empty()) {
        open.back().child_us += dur;
        inherited = open.back().in_explorer;
      }
      const bool explorer = is_explorer(spans[i].name);
      if (explorer && !inherited) {
        out.explorer_ms += static_cast<double>(dur) * 1e-3;
      }
      open.push_back(Open{i, 0, inherited || explorer});
    }
    while (!open.empty()) {
      close(open.back());
      open.pop_back();
    }
  }
  return out;
}

// ---------------------------------------------------------- layer probes

/// A simulation of one probe subject, rewindable to its post-setup state.
struct ProbeSim {
  std::shared_ptr<void> owner;  ///< algorithm instance; outlives the Sim
  std::unique_ptr<Sim> sim;
};

ProbeSim build_probe_sim(const ProbeSubject& s) {
  ProbeSim ps;
  ps.sim = std::make_unique<Sim>();
  Sim& sim = *ps.sim;
  sim.set_trace_recording(false);
  const AlgorithmRegistry& reg = AlgorithmRegistry::instance();
  switch (s.kind) {
    case StudyKind::Mutex:
      ps.owner = std::shared_ptr<MutexAlgorithm>(
          setup_mutex(sim, reg.mutex(s.subject).factory, s.n, 1));
      break;
    case StudyKind::Naming:
      ps.owner = std::shared_ptr<NamingAlgorithm>(
          setup_naming(sim, reg.naming(s.subject).factory, s.n));
      break;
    case StudyKind::Detector:
      ps.owner = std::shared_ptr<Detector>(
          setup_detection(sim, reg.detector(s.subject).factory, s.n));
      break;
  }
  sim.mark_rewind_base();
  return ps;
}

/// Steps a fresh run of `sim` along the subject's schedule (seeded random
/// picks among runnable processes, or sequential) for up to `depth` picks;
/// returns the picks and, optionally, each unit's StepSummary.
std::vector<Pid> record_schedule(Sim& sim, const ProbeSubject& s,
                                 std::uint64_t& rng,
                                 std::vector<StepSummary>* summaries) {
  sim.rewind_to(0);
  std::vector<Pid> picks;
  std::vector<Pid> runnable;
  while (static_cast<int>(picks.size()) < s.depth) {
    runnable.clear();
    for (Pid p = 0; p < s.n; ++p) {
      if (sim.runnable(p)) {
        runnable.push_back(p);
        if (s.sequential) {
          break;
        }
      }
    }
    if (runnable.empty()) {
      break;
    }
    const Pid p = runnable[splitmix64(rng) % runnable.size()];
    sim.step(p);
    picks.push_back(p);
    if (summaries != nullptr) {
      summaries->push_back(sim.last_step_summary());
    }
  }
  return picks;
}

/// Total timed nanoseconds and operations of one probe.
struct ProbeTotal {
  double ns = 0.0;
  std::uint64_t ops = 0;

  void add(SteadyClock::time_point t0, SteadyClock::time_point t1,
           std::uint64_t n_ops, double overhead_ns) {
    ns += std::chrono::duration<double, std::nano>(t1 - t0).count() -
          overhead_ns;
    ops += n_ops;
  }
  [[nodiscard]] double per_op() const {
    return ops == 0 ? 0.0 : ns / static_cast<double>(ops);
  }
};

volatile std::uint64_t g_sink = 0;  // defeats dead-code elimination

/// Cost of one steady_clock read: the clock overhead inside one timed
/// region, subtracted from each.
double clock_overhead_ns() {
  constexpr int kPairs = 20000;
  std::int64_t sum = 0;
  const auto t0 = SteadyClock::now();
  for (int i = 0; i < kPairs; ++i) {
    const auto a = SteadyClock::now();
    sum += (SteadyClock::now() - a).count();
  }
  const double total =
      std::chrono::duration<double, std::nano>(SteadyClock::now() - t0)
          .count();
  g_sink = g_sink + static_cast<std::uint64_t>(sum);
  return total / kPairs / 2.0;
}

struct Probes {
  ProbeTotal step;
  ProbeTotal event;  ///< ns = with-sink minus without-sink step time
  ProbeTotal rewind;
  ProbeTotal fingerprint;
  ProbeTotal push_step;
  ProbeTotal next_step;
  ProbeTotal cache_probe;
};

/// Runs `body` repeatedly until `budget_s` has elapsed (at least once).
void for_budget(double budget_s, const std::function<void()>& body) {
  const auto t0 = SteadyClock::now();
  do {
    body();
  } while (elapsed_s(t0) < budget_s);
}

void probe_subject(const ProbeSubject& s, std::uint64_t seed, double budget_s,
                   double overhead, Probes& out) {
  std::uint64_t rng = seed;
  ProbeSim plain = build_probe_sim(s);
  ProbeSim measured = build_probe_sim(s);
  MeasureAccumulator acc(s.n);
  measured.sim->add_sink(acc);
  Sim& sim = *plain.sim;
  std::vector<StepSummary> summaries;
  const std::vector<Pid> picks = record_schedule(sim, s, rng, &summaries);
  if (picks.empty()) {
    return;
  }

  {
    const obs::TraceSpan span("bench.probe.sim_step");
    // Alternating batches of the same picks, without and with the
    // accumulator sink: the difference is the measurement layer's cost.
    for_budget(budget_s, [&] {
      sim.rewind_to(0);
      const auto t0 = SteadyClock::now();
      for (const Pid p : picks) {
        sim.step(p);
      }
      const auto t1 = SteadyClock::now();
      out.step.add(t0, t1, picks.size(), overhead);

      measured.sim->rewind_to(0);
      acc = MeasureAccumulator(s.n);
      const Seq seq0 = measured.sim->next_seq();
      const auto t2 = SteadyClock::now();
      for (const Pid p : picks) {
        measured.sim->step(p);
      }
      const auto t3 = SteadyClock::now();
      out.event.ns += std::chrono::duration<double, std::nano>(
                          (t3 - t2) - (t1 - t0))
                          .count();
      out.event.ops += measured.sim->next_seq() - seq0;
    });
  }
  if (s.sequential || picks.size() < 2) {
    return;  // contention-free subjects never rewind, probe or race
  }

  const std::size_t half = picks.size() / 2;
  {
    const obs::TraceSpan span("bench.probe.sim_rewind");
    Sim::RewindMark mark;
    for_budget(budget_s, [&] {
      sim.rewind_to(0);
      for (std::size_t i = 0; i < half; ++i) {
        sim.step(picks[i]);
      }
      auto t0 = SteadyClock::now();
      sim.capture_mark(mark);
      auto t1 = SteadyClock::now();
      out.rewind.add(t0, t1, 0, overhead);
      for (std::size_t i = half; i < picks.size(); ++i) {
        sim.step(picks[i]);
      }
      t0 = SteadyClock::now();
      sim.rewind_to_mark(mark);
      t1 = SteadyClock::now();
      out.rewind.add(t0, t1, 1, overhead);
    });
  }
  {
    const obs::TraceSpan span("bench.probe.sim_fingerprint");
    constexpr int kCalls = 4096;
    std::uint64_t h = 0;
    for_budget(budget_s, [&] {
      const auto t0 = SteadyClock::now();
      for (int i = 0; i < kCalls; ++i) {
        h += state_fingerprint(sim);
      }
      const auto t1 = SteadyClock::now();
      out.fingerprint.add(t0, t1, kCalls, overhead);
    });
    g_sink = g_sink + h;
  }
  {
    const obs::TraceSpan span("bench.probe.por_push_step");
    std::vector<std::vector<StepSummary>> paths;
    for (int k = 0; k < 8; ++k) {
      std::vector<StepSummary> path;
      (void)record_schedule(sim, s, rng, &path);
      paths.push_back(std::move(path));
    }
    SourceDpor dpor(s.n);
    std::vector<std::uint32_t> masks(static_cast<std::size_t>(s.depth) + 1);
    for_budget(budget_s, [&] {
      std::uint64_t pushes = 0;
      const auto t0 = SteadyClock::now();
      for (const std::vector<StepSummary>& path : paths) {
        std::fill(masks.begin(), masks.end(), 0u);
        dpor.clear();
        for (std::size_t i = 0; i < path.size(); ++i) {
          dpor.push_step(static_cast<int>(i), path[i], masks);
        }
        dpor.pop_to(0);
        pushes += path.size();
      }
      const auto t1 = SteadyClock::now();
      out.push_step.add(t0, t1, pushes, overhead);
    });
    g_sink = g_sink + dpor.stats().races_detected;
  }
  {
    const obs::TraceSpan span("bench.probe.por_next_step");
    constexpr int kRepeat = 16;
    std::uint64_t dependent_pairs = 0;
    for_budget(budget_s, [&] {
      sim.rewind_to(0);
      sim.step(picks[0]);
      for (std::size_t i = 1; i < picks.size(); ++i) {
        const StepSummary& last = sim.last_step_summary();
        const auto t0 = SteadyClock::now();
        for (int r = 0; r < kRepeat; ++r) {
          for (Pid p = 0; p < s.n; ++p) {
            dependent_pairs += dependent(last, next_step_of(sim, p)) ? 1 : 0;
          }
        }
        const auto t1 = SteadyClock::now();
        out.next_step.add(t0, t1,
                          static_cast<std::uint64_t>(kRepeat) *
                              static_cast<std::uint64_t>(s.n),
                          overhead);
        sim.step(picks[i]);
      }
    });
    g_sink = g_sink + dependent_pairs;
  }
}

/// SleepCache::check_and_insert over a seeded stream of (key, sleep mask)
/// visits shaped like the workload's searches: as many visits as one engine
/// run (one work item) makes on average, of which a share equal to the
/// workload's hit ratio re-visits an earlier key under a superset of its
/// last stored mask (pruned). Of the rest, one in four re-visits an earlier
/// key under a mask that drops a bit of that mask, so the visit is usually
/// not subsumed: it is inserted, drops stored supersets and can grow the
/// key's antichain past its two inline slots into the spill slabs. The
/// others are fresh keys. Masks are uniform over `mask_bits` process bits —
/// a synthetic distribution; the engine's real sleep sets are not recorded.
void probe_cache(std::uint64_t seed, std::uint64_t states,
                 std::uint64_t engine_runs, std::uint64_t hits, int mask_bits,
                 double budget_s, double overhead, Probes& out) {
  if (states == 0) {
    return;
  }
  const std::uint64_t length = std::clamp<std::uint64_t>(
      states / std::max<std::uint64_t>(engine_runs, 1), 256, 1u << 21);
  const double hit_ratio =
      static_cast<double>(hits) / static_cast<double>(states);
  const std::uint32_t all = (1u << mask_bits) - 1u;
  std::uint64_t rng = seed;
  const auto uniform = [&rng] {
    return static_cast<double>(splitmix64(rng) >> 11) * 0x1.0p-53;
  };
  const auto random_mask = [&rng, all] {
    return static_cast<std::uint32_t>(splitmix64(rng)) & all;
  };
  struct Visit {
    std::uint64_t key;
    std::uint32_t sleep;
  };
  std::vector<Visit> visits;
  std::vector<Visit> last;  ///< per distinct key: its last inserted mask
  visits.reserve(length);
  for (std::uint64_t i = 0; i < length; ++i) {
    const double u = uniform();
    if (last.empty() || u >= hit_ratio + 0.25 * (1.0 - hit_ratio)) {
      last.push_back({splitmix64(rng), random_mask()});
      visits.push_back(last.back());
      continue;
    }
    Visit& prev = last[splitmix64(rng) % last.size()];
    if (u < hit_ratio) {
      visits.push_back({prev.key, prev.sleep | random_mask()});
    } else {
      const std::uint32_t lowest_bit = prev.sleep & (~prev.sleep + 1u);
      prev.sleep = random_mask() & ~lowest_bit;
      visits.push_back(prev);
    }
  }
  const obs::TraceSpan span("bench.probe.cache_probe");
  SleepCache cache;
  std::uint64_t pruned = 0;
  for_budget(budget_s, [&] {
    cache.clear();
    const auto t0 = SteadyClock::now();
    for (const Visit& v : visits) {
      pruned += cache.check_and_insert(v.key, v.sleep) ? 1 : 0;
    }
    const auto t1 = SteadyClock::now();
    out.cache_probe.add(t0, t1, visits.size(), overhead);
  });
  g_sink = g_sink + pruned;
}

// -------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ");
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

// ---------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  int threads = 0;
  std::string expected = "certbench/expected.json";
  std::string trace_out;
  std::string regen;
  bool setup_only = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument("missing value for " + arg);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      a.workload = value();
    } else if (arg == "--seed") {
      a.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      a.seconds = std::stod(value());
    } else if (arg == "--trace") {
      a.trace = std::stoi(value());
    } else if (arg == "--threads") {
      a.threads = std::stoi(value());
    } else if (arg == "--expected") {
      a.expected = value();
    } else if (arg == "--trace-out") {
      a.trace_out = value();
    } else if (arg == "--regen") {
      a.regen = value();
    } else if (arg == "--setup-only") {
      a.setup_only = true;
    } else {
      throw std::invalid_argument("unknown argument: " + arg);
    }
  }
  if (a.threads <= 0) {
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    a.threads = std::clamp(hw, 1, 4);
  }
  if (a.trace == 1 && a.trace_out.empty() && a.regen.empty() &&
      !a.setup_only) {
    throw std::invalid_argument("--trace 1 needs --trace-out <file>");
  }
  return a;
}

Campaign campaign_of(const Workload& w) {
  Campaign c;
  for (const Study& s : w.studies) {
    c.add(s.spec);
  }
  return c;
}

int regen(const Args& a) {
  ExperimentRunner runner(a.threads);
  std::map<std::string, std::string> records;
  for (const std::string& name : kWorkloads) {
    const Workload w = build_workload(name, a.seed, /*oracle=*/true);
    const auto t0 = SteadyClock::now();
    const std::vector<StudyResult> results = campaign_of(w).run(&runner);
    std::fprintf(stderr, "regen %s: %zu studies in %.2f s\n", name.c_str(),
                 results.size(), elapsed_s(t0));
    for (std::size_t i = 0; i < w.studies.size(); ++i) {
      if (w.studies[i].expect == Expect::Pinned) {
        records[w.studies[i].key] = pin_record(w.studies[i], results[i]);
      }
    }
  }
  std::string out = "{\"schema\": \"certbench.expected.v1\", \"studies\": {";
  bool first = true;
  for (const auto& [key, record] : records) {
    out += (first ? "\n" : ",\n") + std::string("  \"") + key + "\": " + record;
    first = false;
  }
  out += "\n}}\n";
  std::ofstream(a.regen) << out;
  return 0;
}

int run(const Args& a) {
  // ---- set-up: everything up to the first Campaign::run.
  const Pins pins = load_pins(a.expected);
  const Workload w = build_workload(a.workload, a.seed, /*oracle=*/false);
  ExperimentRunner runner(a.threads);
  const Campaign campaign = campaign_of(w);
  const double setup_end = monotonic_s();
  if (a.setup_only) {
    std::printf("{\"setup_end_monotonic\": %s}\n", num(setup_end).c_str());
    return 0;
  }

  // Checks: one per study per rep, one per repeated rep (the deterministic
  // counts must not change) and one per written trace. A check fails once,
  // however many of its values disagree.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  const auto check = [&](std::vector<std::string> found) {
    attempted += 1;
    failed += found.empty() ? 0 : 1;
    problems.insert(problems.end(), found.begin(), found.end());
  };
  std::optional<Counts> first_counts;
  // One Campaign::run — the only timed region — then its checks.
  struct Rep {
    std::vector<StudyResult> results;
    double wall_s = 0.0;
    double cpu_s = 0.0;
  };
  const auto run_rep = [&](CampaignStats* stats) {
    Rep rep;
    {
      const obs::TraceSpan span("bench.campaign");
      const double c0 = cpu_s();
      const auto t0 = SteadyClock::now();
      rep.results = campaign.run(&runner, stats);
      rep.wall_s = elapsed_s(t0);
      rep.cpu_s = cpu_s() - c0;
    }
    for (std::size_t i = 0; i < w.studies.size(); ++i) {
      std::vector<std::string> found;
      check_study(w.studies[i], rep.results[i], pins, rep.results, found);
      check(std::move(found));
    }
    const Counts c = count(rep.results);
    if (!first_counts.has_value()) {
      first_counts = c;
    } else if (!(c == *first_counts)) {
      check({"deterministic counts differ between reps: " + c.to_json() +
             " vs " + first_counts->to_json()});
    } else {
      check({});
    }
    return rep;
  };

  // Untraced reps for `budget_s` (a rep is started while at least half a
  // median rep of the budget remains; a budget of 0 runs one rep);
  // timings are reported as medians. Peak RSS is read after the first rep,
  // so it does not grow with the number of reps a faster program fits into
  // the budget.
  std::vector<double> walls;
  std::vector<double> cpus;
  double first_rep_rss_mb = 0.0;
  const auto untraced_reps = [&](double budget_s) {
    const auto t_start = SteadyClock::now();
    do {
      const Rep rep = run_rep(nullptr);
      walls.push_back(rep.wall_s);
      cpus.push_back(rep.cpu_s);
      if (walls.size() == 1) {
        first_rep_rss_mb = peak_rss_mb();
      }
    } while (elapsed_s(t_start) + 0.5 * median(walls) < budget_s);
  };

  std::vector<Metric> metrics;
  std::size_t reps = 0;
  if (a.trace == 0) {
    untraced_reps(a.seconds);
    reps = walls.size();
    metrics = {
        {"wall_s", median(walls), "s"},
        {"cpu_s", median(cpus), "s"},
        {"states", static_cast<double>(first_counts->states), "count"},
        {"peak_rss_mb", first_rep_rss_mb, "MB"},
        {"passed_frac",
         1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
         "ratio"},
    };
  } else {
    // Untraced reference reps for half the budget, then one traced rep
    // with the metric registry on and the benchmark's own spans around
    // Campaign::run and each probe.
    untraced_reps(0.5 * a.seconds);
    const double untraced_s = median(walls);

    obs::MetricRegistry& registry = obs::MetricRegistry::global();
    registry.reset();
    registry.set_enabled(true);
    obs::Tracer::start(a.trace_out);
    CampaignStats stats;
    const Rep traced = run_rep(&stats);
    const std::vector<StudyResult>& results = traced.results;
    const double traced_s = traced.wall_s;
    const obs::MetricRegistry::Snapshot snap = registry.snapshot();
    registry.set_enabled(false);
    const Counts c = count(results);

    const double overhead = clock_overhead_ns();
    Probes probes;
    const double budget = 0.25 / static_cast<double>(w.probes.size());
    for (std::size_t i = 0; i < w.probes.size(); ++i) {
      probe_subject(w.probes[i], a.seed + 1000 * (i + 1), budget, overhead,
                    probes);
    }
    std::uint64_t engine_runs = 0;
    for (std::size_t i = 0; i < w.studies.size(); ++i) {
      const StudySpec& spec = w.studies[i].spec;
      if (spec.want_wc && spec.study_kind != StudyKind::Naming &&
          spec.search.strategy != SearchStrategy::Random) {
        engine_runs += std::max<std::uint64_t>(results[i].work_items, 1);
      }
    }
    int mask_bits = 1;
    for (const ProbeSubject& s : w.probes) {
      mask_bits = s.sequential ? mask_bits : std::max(mask_bits, s.n);
    }
    probe_cache(a.seed, c.states, engine_runs, c.cache_hits, mask_bits, 0.25,
                overhead, probes);
    if (!obs::Tracer::stop()) {
      throw std::runtime_error("could not write trace " + a.trace_out);
    }
    const TraceSummary trace = analyze_trace(read_file(a.trace_out));
    check(trace.valid ? std::vector<std::string>{}
                      : std::vector<std::string>{
                            "trace rejected by check_trace_json: " +
                            (trace.errors.empty() ? std::string()
                                                  : trace.errors.front())});

    const double campaign_ms = traced_s * 1e3;
    const double execute_ms =
        std::max(0.0, campaign_ms - stats.plan_ms - stats.merge_ms);
    double cell_ms_sum = 0.0;
    double cell_ms_max = 0.0;
    for (const double ms : stats.cell_wall_ms) {
      cell_ms_sum += ms;
      cell_ms_max = std::max(cell_ms_max, ms);
    }
    const auto per_state = [&c](double v) {
      return c.states == 0 ? 0.0 : v / static_cast<double>(c.states);
    };
    const auto self_ms = [&trace](const char* span) {
      const auto it = trace.self_ms.find(span);
      return it == trace.self_ms.end() ? 0.0 : it->second;
    };
    const auto ops = [](const ProbeTotal& p) {
      return static_cast<double>(p.ops);
    };
    metrics = {
        {"study.plan_ms", stats.plan_ms, "ms"},
        {"study.execute_ms", execute_ms, "ms"},
        {"study.merge_ms", stats.merge_ms, "ms"},
        {"study.cells", static_cast<double>(stats.cells), "count"},
        {"study.tasks_deduplicated",
         static_cast<double>(stats.tasks_deduplicated), "count"},
        {"study.cell_ms_p50", median(stats.cell_wall_ms), "ms"},
        {"study.cell_ms_max", cell_ms_max, "ms"},
        {"runner.busy_frac",
         execute_ms <= 0.0 ? 0.0 : cell_ms_sum / (execute_ms * a.threads),
         "ratio"},
        {"explorer.ns_per_state", per_state(trace.explorer_ms * 1e6), "ns"},
        {"explorer.work_items", static_cast<double>(c.work_items), "count"},
        {"explorer.restore_marks", static_cast<double>(c.restore_marks),
         "count"},
        {"explorer.restores",
         static_cast<double>(snap.value(obs::Metric::restores)), "count"},
        {"explorer.steals",
         static_cast<double>(snap.value(obs::Metric::steals)), "count"},
        {"explorer.plan.self_ms", self_ms("explorer.plan"), "ms"},
        {"explorer.item.self_ms", self_ms("explorer.item"), "ms"},
        {"explorer.merge.self_ms", self_ms("explorer.merge"), "ms"},
        {"explorer.cell.self_ms", self_ms("explorer.cell"), "ms"},
        {"campaign.cell.self_ms", self_ms("campaign.cell"), "ms"},
        {"por.races_detected", static_cast<double>(c.races_detected), "count"},
        {"por.backtrack_points", static_cast<double>(c.backtrack_points),
         "count"},
        {"por.sleep_blocked", static_cast<double>(c.sleep_blocked), "count"},
        {"por.races_per_state",
         per_state(static_cast<double>(c.races_detected)), "ratio"},
        {"por.push_step_ns", probes.push_step.per_op(), "ns"},
        {"por.push_step_ops", ops(probes.push_step), "count"},
        {"por.next_step_ns", probes.next_step.per_op(), "ns"},
        {"por.next_step_ops", ops(probes.next_step), "count"},
        {"cache.hits", static_cast<double>(c.cache_hits), "count"},
        {"cache.hit_ratio", per_state(static_cast<double>(c.cache_hits)),
         "ratio"},
        {"cache.live_bytes",
         static_cast<double>(snap.value(obs::Metric::visited_live_bytes)),
         "bytes"},
        {"cache.probe_ns", probes.cache_probe.per_op(), "ns"},
        {"cache.probe_ops", ops(probes.cache_probe), "count"},
        {"sim.step_ns", probes.step.per_op(), "ns"},
        {"sim.step_ops", ops(probes.step), "count"},
        {"sim.rewind_ns", probes.rewind.per_op(), "ns"},
        {"sim.rewind_ops", ops(probes.rewind), "count"},
        {"sim.fingerprint_ns", probes.fingerprint.per_op(), "ns"},
        {"sim.fingerprint_ops", ops(probes.fingerprint), "count"},
        {"measure.event_ns", probes.event.per_op(), "ns"},
        {"measure.event_ops", ops(probes.event), "count"},
        {"obs.trace_overhead_frac", (traced_s - untraced_s) / untraced_s,
         "ratio"},
    };
    reps = walls.size() + 1;
  }

  for (const std::string& p : problems) {
    std::fprintf(stderr, "certbench: FAILED %s\n", p.c_str());
  }
  std::string out = "{\"workload\": \"" + w.name + "\"";
  out += ", \"correct\": " + std::string(failed == 0 ? "true" : "false");
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"reps\": " + std::to_string(reps);
  const auto list = [](const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      s += (i == 0 ? "" : ", ") + num(v[i]);
    }
    return s + "]";
  };
  out += ", \"rep_wall_s\": " + list(walls);
  out += ", \"rep_cpu_s\": " + list(cpus);
  out += ", \"setup_end_monotonic\": " + num(setup_end);
  out += ", \"counts\": " + first_counts->to_json();
  out += ", \"context\": {\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"threads\": " + std::to_string(a.threads) +
         ", \"compiler\": \"" + json_escape(CERTBENCH_COMPILER) +
         "\", \"build_type\": \"" + json_escape(CERTBENCH_BUILD_TYPE) +
         "\", \"seed\": " + std::to_string(a.seed) + "}";
  out += ", \"metrics\": " + metrics_json(metrics) + "}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    if (!a.regen.empty()) {
      return regen(a);
    }
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "certbench: %s\n", e.what());
    return 1;
  }
}
