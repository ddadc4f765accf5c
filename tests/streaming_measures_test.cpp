// Differential test of the streaming measurement sink: a MeasureAccumulator
// attached to a simulation must report exactly what the offline trace-based
// functions in core/measures.h compute over the recorded trace — totals,
// contention-free sessions, clean entry windows, and exit windows — on
// randomized schedules across algorithm families, with and without crash
// injection, and across the explorer's snapshot-and-restore by assignment.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/algorithm_registry.h"
#include "core/measures.h"
#include "core/streaming_measures.h"
#include "mutex/mutex_algorithm.h"
#include "naming/naming_algorithm.h"
#include "sched/sched.h"

namespace cfc {
namespace {

void expect_reports_equal(const ComplexityReport& streaming,
                          const ComplexityReport& traced,
                          const std::string& what) {
  EXPECT_EQ(streaming.steps, traced.steps) << what;
  EXPECT_EQ(streaming.registers, traced.registers) << what;
  EXPECT_EQ(streaming.read_steps, traced.read_steps) << what;
  EXPECT_EQ(streaming.write_steps, traced.write_steps) << what;
  EXPECT_EQ(streaming.read_registers, traced.read_registers) << what;
  EXPECT_EQ(streaming.write_registers, traced.write_registers) << what;
  EXPECT_EQ(streaming.atomicity, traced.atomicity) << what;
}

bool same_counts(const ComplexityReport& a, const ComplexityReport& b) {
  return a.steps == b.steps && a.registers == b.registers &&
         a.read_steps == b.read_steps && a.write_steps == b.write_steps &&
         a.read_registers == b.read_registers &&
         a.write_registers == b.write_registers && a.atomicity == b.atomicity;
}

/// Runs the sim (trace recording on AND accumulator attached) and compares
/// every streaming quantity to the trace-based reference, per pid.
void compare_all_measures(Sim& sim, const MeasureAccumulator& acc, int n,
                          const std::string& what) {
  const Trace& trace = sim.trace();
  for (Pid pid = 0; pid < n; ++pid) {
    const std::string who = what + " pid=" + std::to_string(pid);
    expect_reports_equal(acc.total(pid), measure_all(trace, pid),
                         who + " total");
    const auto cf_sessions = contention_free_sessions(trace, pid, n);
    expect_reports_equal(acc.contention_free_session_max(pid),
                         max_over_windows(trace, pid, cf_sessions),
                         who + " cf-session");
    EXPECT_EQ(acc.contention_free_session_count(pid),
              static_cast<int>(cf_sessions.size()))
        << who;
    expect_reports_equal(
        acc.clean_entry_max(pid),
        max_over_windows(trace, pid, clean_entry_windows(trace, pid, n)),
        who + " clean-entry");
    expect_reports_equal(
        acc.exit_max(pid),
        max_over_windows(trace, pid, exit_windows(trace, pid)),
        who + " exit");
  }
}

/// True iff one process accessed registers on both sides of the
/// RegIdSet mask/spill boundary during the run.
bool some_pid_straddles_the_spill(const Trace& trace, int n) {
  std::vector<int> seen(static_cast<std::size_t>(n), 0);
  for (const TraceEvent& ev : trace.events()) {
    if (ev.kind == TraceEvent::Kind::Access) {
      seen[static_cast<std::size_t>(ev.pid)] |=
          ev.access.reg < RegIdSet::kInlineIds ? 1 : 2;
    }
  }
  return std::find(seen.begin(), seen.end(), 3) != seen.end();
}

TEST(StreamingMeasures, MatchesTraceOnRandomMutexSchedules) {
  const auto& registry = AlgorithmRegistry::instance();
  const std::vector<std::string> algorithms = {
      "lamport-fast", "thm3-exact-l2", "kessels-tree", "peterson-tree"};
  for (const std::string& name : algorithms) {
    const MutexAlgorithmEntry& entry = registry.mutex(name);
    for (const int n : {2, 4, 8}) {
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        Sim sim;
        MeasureAccumulator acc(n);
        sim.add_sink(acc);
        auto alg = setup_mutex(sim, entry.factory, n, /*sessions=*/2);
        RandomScheduler rnd(seed);
        drive(sim, rnd, RunLimits{100'000});
        compare_all_measures(
            sim, acc, n,
            name + " n=" + std::to_string(n) + " seed=" +
                std::to_string(seed));
      }
    }
  }
}

TEST(StreamingMeasures, MatchesTraceWhenRegisterIdsSpill) {
  // Register ids from RegIdSet::kInlineIds on live in the accumulator's
  // spill vectors; at these n the tree locks' ids straddle that boundary,
  // so every set mixes mask bits and spilled ids.
  const auto& registry = AlgorithmRegistry::instance();
  for (const std::string name : {"peterson-tree", "kessels-tree"}) {
    const MutexAlgorithmEntry& entry = registry.mutex(name);
    for (const int n : {32, 64}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Sim sim;
        MeasureAccumulator acc(n);
        sim.add_sink(acc);
        auto alg = setup_mutex(sim, entry.factory, n, /*sessions=*/2);
        ASSERT_GT(sim.memory().size(), RegIdSet::kInlineIds) << name;
        RandomScheduler rnd(seed);
        drive(sim, rnd, RunLimits{20'000});
        EXPECT_TRUE(some_pid_straddles_the_spill(sim.trace(), n)) << name;
        compare_all_measures(
            sim, acc, n,
            name + " n=" + std::to_string(n) + " seed=" +
                std::to_string(seed));
      }
    }
  }
}

TEST(StreamingMeasures, CopiesAreIndependentAcrossTheSpill) {
  // Two simulations run the same schedule prefix; at the split the
  // accumulator is copied onto the second one and the two runs continue
  // under different schedules. Each copy must keep matching its own
  // trace: the copy owns its spill vectors, so neither sees the other's
  // later ids.
  const MutexAlgorithmEntry& entry =
      AlgorithmRegistry::instance().mutex("peterson-tree");
  const int n = 64;
  for (const std::uint64_t prefix : {300u, 3'000u}) {
    Sim a;
    Sim b;
    MeasureAccumulator acc_a(n);
    a.add_sink(acc_a);
    auto alg_a = setup_mutex(a, entry.factory, n, /*sessions=*/2);
    auto alg_b = setup_mutex(b, entry.factory, n, /*sessions=*/2);
    RandomScheduler pre_a(7);
    RandomScheduler pre_b(7);
    drive(a, pre_a, RunLimits{prefix});
    drive(b, pre_b, RunLimits{prefix});
    ASSERT_EQ(a.schedule_log().size(), b.schedule_log().size());

    MeasureAccumulator acc_b(1);
    acc_b = acc_a;  // copy-assign over a differently sized accumulator
    b.add_sink(acc_b);
    RandomScheduler post_a(11);
    RandomScheduler post_b(12);
    drive(a, post_a, RunLimits{20'000});
    drive(b, post_b, RunLimits{20'000});
    EXPECT_TRUE(some_pid_straddles_the_spill(b.trace(), n));
    const std::string what = "prefix=" + std::to_string(prefix);
    compare_all_measures(a, acc_a, n, what + " original");
    compare_all_measures(b, acc_b, n, what + " copy");
  }
}

TEST(StreamingMeasures, MatchesTraceOnSoloSessions) {
  const auto& registry = AlgorithmRegistry::instance();
  const int n = 8;
  for (const MutexAlgorithmEntry* entry : registry.mutex_for_n(n, "thm3")) {
    for (Pid pid = 0; pid < n; pid += 3) {
      Sim sim;
      MeasureAccumulator acc(n);
      sim.add_sink(acc);
      auto alg = setup_mutex(sim, entry->factory, n, /*sessions=*/1);
      SoloScheduler solo(pid);
      drive(sim, solo);
      compare_all_measures(sim, acc, n, entry->info.name + " solo");
      EXPECT_EQ(acc.contention_free_session_count(pid), 1)
          << entry->info.name;
    }
  }
}

TEST(StreamingMeasures, MatchesTraceOnNamingRunsWithCrashes) {
  const auto& registry = AlgorithmRegistry::instance();
  const int n = 8;
  for (const NamingAlgorithmEntry* entry : registry.naming_algorithms()) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      Sim sim;
      MeasureAccumulator acc(n);
      sim.add_sink(acc);
      auto alg = setup_naming(sim, entry->factory, n);
      // Crash two processes at different depths; wait-freedom keeps the
      // rest running, and measurement must agree either way.
      sim.crash_after(1, seed % 3);
      sim.crash_after(5, 1 + seed % 2);
      RandomScheduler rnd(seed);
      drive(sim, rnd, RunLimits{100'000});
      compare_all_measures(
          sim, acc, n, entry->info.name + " seed=" + std::to_string(seed));
    }
  }
}

TEST(StreamingMeasures, AgreesWithTraceWhenRecordingDisabled) {
  // Two identical runs driven by the same seed: one with the trace, one
  // streaming-only (recording off). The streaming run must see the same
  // events — sequence numbering does not depend on materialization.
  const MutexFactory factory =
      AlgorithmRegistry::instance().mutex("lamport-fast").factory;
  const int n = 4;

  Sim traced;
  auto alg1 = setup_mutex(traced, factory, n, 2);
  RandomScheduler rnd1(99);
  drive(traced, rnd1, RunLimits{50'000});

  Sim streaming;
  streaming.set_trace_recording(false);
  MeasureAccumulator acc(n);
  streaming.add_sink(acc);
  auto alg2 = setup_mutex(streaming, factory, n, 2);
  RandomScheduler rnd2(99);
  drive(streaming, rnd2, RunLimits{50'000});

  EXPECT_TRUE(streaming.trace().empty());
  EXPECT_EQ(streaming.next_seq(), traced.next_seq());
  for (Pid pid = 0; pid < n; ++pid) {
    expect_reports_equal(acc.total(pid), measure_all(traced.trace(), pid),
                         "recording-off pid=" + std::to_string(pid));
  }
}

TEST(StreamingMeasures, RejectsOutOfRangePids) {
  const int n = 3;
  MeasureAccumulator acc(n);
  const MeasureAccumulator fresh(n);
  for (const Pid bad : {Pid{-1}, Pid{n}}) {
    TraceEvent change;
    change.kind = TraceEvent::Kind::SectionChange;
    change.pid = bad;
    change.from = Section::Remainder;
    change.to = Section::Entry;
    EXPECT_THROW(acc.on_event(change), std::out_of_range) << bad;
    TraceEvent access;
    access.kind = TraceEvent::Kind::Access;
    access.pid = bad;
    EXPECT_THROW(acc.on_event(access), std::out_of_range) << bad;
  }
  // A rejected event leaves no trace in the measurement state.
  EXPECT_EQ(acc.digest(), fresh.digest());
}

TEST(StreamingMeasures, ExitWithTheEntryWindowOpenSpoilsThatWindow) {
  // Hand-fed events no registry algorithm emits: pid 0 goes from Entry
  // straight to Exit, so its own clean entry window is no longer clean
  // when it later reaches Critical; pid 1's window, open throughout, is
  // spoiled too. Both must match the trace path.
  const int n = 2;
  Trace trace;
  MeasureAccumulator acc(n);
  Seq seq = 0;
  const auto feed = [&](TraceEvent ev) {
    ev.seq = seq++;
    trace.push(ev);
    acc.on_event(ev);
  };
  const auto change = [&](Pid pid, Section from, Section to) {
    TraceEvent ev;
    ev.kind = TraceEvent::Kind::SectionChange;
    ev.pid = pid;
    ev.from = from;
    ev.to = to;
    feed(ev);
  };
  const auto access = [&](Pid pid, RegId reg) {
    TraceEvent ev;
    ev.kind = TraceEvent::Kind::Access;
    ev.pid = pid;
    ev.access.reg = reg;
    ev.access.kind = AccessKind::Read;
    ev.access.width = 1;
    feed(ev);
  };
  change(1, Section::Remainder, Section::Entry);
  change(0, Section::Remainder, Section::Entry);
  access(0, 3);
  change(0, Section::Entry, Section::Exit);
  access(0, 4);
  change(0, Section::Exit, Section::Critical);
  change(0, Section::Critical, Section::Remainder);
  access(1, 5);
  change(1, Section::Entry, Section::Critical);
  for (Pid pid = 0; pid < n; ++pid) {
    const auto windows = clean_entry_windows(trace, pid, n);
    EXPECT_TRUE(windows.empty()) << pid;
    expect_reports_equal(acc.clean_entry_max(pid),
                         max_over_windows(trace, pid, windows),
                         "pid=" + std::to_string(pid));
  }
  EXPECT_EQ(acc.clean_entry_max(0).steps, 0);
}

/// Runs one process at a time in bursts of random length, so at large n
/// some sessions run contention-free and others overlap.
class BurstScheduler final : public Scheduler {
 public:
  explicit BurstScheduler(std::uint64_t seed) : rng_(seed) {}
  std::optional<Pid> next(const Sim& sim) override {
    const std::vector<Pid>& runnable = sim.runnable_pids();
    if (runnable.empty()) {
      return std::nullopt;
    }
    if (!current_ || !sim.runnable(*current_) || rng_() % 8 == 0) {
      current_ = runnable[rng_() % runnable.size()];
    }
    return current_;
  }

 private:
  std::mt19937_64 rng_;
  std::optional<Pid> current_;
};

/// Follows a run event by event behind the accumulator under test: keeps
/// the surviving event sequence, and after every event compares each
/// pid's window maxima with the trace path of core/measures (recomputed
/// for the pid that changed section: only its own windows can close) and
/// hashes the accumulator, as the explorer does at every node, so a
/// contribution whose dirty flag was missed stays stale in the cache.
class WindowChecker final : public EventSink {
 public:
  WindowChecker(const MeasureAccumulator& acc, int n)
      : acc_(acc), n_(n), ref_(static_cast<std::size_t>(n)) {
    recompute_all();
  }

  void on_event(const TraceEvent& ev) override {
    events_.push_back(ev);
    trace_.push(ev);
    if (ev.kind == TraceEvent::Kind::SectionChange) {
      recompute(ev.pid);
    }
    compare("after seq " + std::to_string(ev.seq));
    (void)acc_.digest();
  }

  /// Truncates the surviving sequence back to `events` events (the
  /// restore point) and recomputes every reference from it.
  void truncate(std::size_t events) {
    events_.resize(events);
    trace_.clear();
    for (const TraceEvent& ev : events_) {
      trace_.push(ev);
    }
    recompute_all();
    compare("after restore");
  }

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] const std::string& first_mismatch() const {
    return mismatch_;
  }

 private:
  struct Ref {
    ComplexityReport cf_session;
    ComplexityReport clean_entry;
    ComplexityReport exit;
    int cf_sessions = 0;
  };

  void recompute(Pid pid) {
    const auto cf = contention_free_sessions(trace_, pid, n_);
    Ref& r = ref_[static_cast<std::size_t>(pid)];
    r.cf_session = max_over_windows(trace_, pid, cf);
    r.cf_sessions = static_cast<int>(cf.size());
    r.clean_entry = max_over_windows(trace_, pid,
                                     clean_entry_windows(trace_, pid, n_));
    r.exit = max_over_windows(trace_, pid, exit_windows(trace_, pid));
  }

  void recompute_all() {
    for (Pid pid = 0; pid < n_; ++pid) {
      recompute(pid);
    }
  }

  void compare(const std::string& when) {
    if (!mismatch_.empty()) {
      return;  // report the first divergence only
    }
    for (Pid pid = 0; pid < n_; ++pid) {
      const Ref& r = ref_[static_cast<std::size_t>(pid)];
      if (!same_counts(acc_.contention_free_session_max(pid),
                       r.cf_session) ||
          !same_counts(acc_.clean_entry_max(pid), r.clean_entry) ||
          !same_counts(acc_.exit_max(pid), r.exit) ||
          acc_.contention_free_session_count(pid) != r.cf_sessions) {
        mismatch_ = "pid " + std::to_string(pid) + " " + when;
        return;
      }
    }
  }

  const MeasureAccumulator& acc_;
  int n_;
  std::vector<Ref> ref_;
  std::vector<TraceEvent> events_;
  Trace trace_;
  std::string mismatch_;
};

TEST(StreamingMeasures, MatchesTraceAcrossSnapshotAndRestore) {
  // The explorer's snapshot (copy) and restore (assignment) at random
  // points of a run: the restored accumulator continues on a different
  // schedule and must end equal — maxima and the digest — to a fresh
  // accumulator fed only the events that survived the restores.
  const auto& registry = AlgorithmRegistry::instance();
  for (const int n : {3, 40, 130}) {
    for (const MutexAlgorithmEntry* entry : registry.mutex_for_n(n)) {
      for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        const std::string what = entry->info.name + " n=" +
                                 std::to_string(n) + " seed=" +
                                 std::to_string(seed);
        SCOPED_TRACE(what);
        Sim sim;
        sim.set_trace_recording(false);
        MeasureAccumulator acc(n);
        WindowChecker check(acc, n);
        sim.add_sink(acc);
        sim.add_sink(check);
        auto alg = setup_mutex(sim, entry->factory, n, /*sessions=*/2);
        sim.crash_after(static_cast<Pid>(seed % n), 2 + seed);
        sim.crash_after(n - 1, 5);
        sim.mark_rewind_base();

        std::mt19937_64 rng(seed * 1'000 + static_cast<std::uint64_t>(n));
        const auto units = static_cast<std::uint64_t>(10 * n);
        for (int restore = 0; restore < 4; ++restore) {
          BurstScheduler lead(rng());
          drive(sim, lead, RunLimits{1 + rng() % units});
          Sim::RewindMark mark;
          sim.capture_mark(mark);
          const MeasureAccumulator saved = acc;
          const std::size_t saved_events = check.events().size();
          BurstScheduler abandoned(rng());
          drive(sim, abandoned, RunLimits{1 + rng() % units});
          sim.rewind_to_mark(mark);
          acc = saved;
          check.truncate(saved_events);
        }
        BurstScheduler last(rng());
        drive(sim, last, RunLimits{units});
        ASSERT_EQ(check.first_mismatch(), "");

        MeasureAccumulator fresh(n);
        for (const TraceEvent& ev : check.events()) {
          fresh.on_event(ev);
        }
        for (Pid pid = 0; pid < n; ++pid) {
          const std::string who = what + " pid=" + std::to_string(pid);
          expect_reports_equal(acc.total(pid), fresh.total(pid),
                               who + " total");
          expect_reports_equal(acc.contention_free_session_max(pid),
                               fresh.contention_free_session_max(pid),
                               who + " cf-session");
          expect_reports_equal(acc.clean_entry_max(pid),
                               fresh.clean_entry_max(pid),
                               who + " clean-entry");
          expect_reports_equal(acc.exit_max(pid), fresh.exit_max(pid),
                               who + " exit");
        }
        EXPECT_EQ(acc.digest(), fresh.digest());
      }
    }
  }
}

/// The fifteen non-empty subsets of the four fields.
std::vector<std::vector<MeasureField>> field_subsets() {
  std::vector<std::vector<MeasureField>> out;
  for (unsigned bits = 1; bits < 16; ++bits) {
    std::vector<MeasureField> subset;
    for (const MeasureField f : kAllMeasureFields) {
      if ((bits >> static_cast<unsigned>(f) & 1u) != 0) {
        subset.push_back(f);
      }
    }
    out.push_back(subset);
  }
  return out;
}

/// One process's value of field `f`.
ComplexityReport field_report(const MeasureAccumulator& acc, MeasureField f,
                              Pid pid) {
  switch (f) {
    case MeasureField::CleanEntry:
      return acc.clean_entry_max(pid);
    case MeasureField::Exit:
      return acc.exit_max(pid);
    case MeasureField::CfSession:
      return acc.contention_free_session_max(pid);
    case MeasureField::Total:
      return acc.total(pid);
  }
  return {};
}

bool same_report(const ComplexityReport& a, const ComplexityReport& b) {
  return same_counts(a, b) && a.truncated == b.truncated;
}

/// Follows a run behind an all-fields accumulator and one accumulator per
/// field subset (subscribed after all of them): after every event, each
/// subset accumulator's tracked per-pid reports, session counts and maxima
/// over processes must equal the all-fields accumulator's. An access by a
/// process in its critical section touches none of its clean-entry or
/// exit windows, so it must leave the digest of a subset of those two
/// fields unchanged. Keeps the surviving events, as WindowChecker does.
class SubsetChecker final : public EventSink {
 public:
  SubsetChecker(const Sim& sim, const MeasureAccumulator& all,
                const std::vector<MeasureAccumulator>& subsets)
      : sim_(sim), all_(all), subsets_(subsets) {
    resync();
  }

  void on_event(const TraceEvent& ev) override {
    events_.push_back(ev);
    const bool quiet_access = ev.kind == TraceEvent::Kind::Access &&
                              sim_.section(ev.pid) == Section::Critical;
    for (std::size_t i = 0; i < subsets_.size(); ++i) {
      const MeasureAccumulator& acc = subsets_[i];
      const std::uint64_t d = acc.digest();
      if (quiet_access && !acc.tracks(MeasureField::CfSession) &&
          !acc.tracks(MeasureField::Total) && d != digests_[i]) {
        note("digest moved on a critical-section access", i, ev);
      }
      digests_[i] = d;
      compare(i, ev);
    }
  }

  /// Truncates the surviving sequence to `events` events and re-reads the
  /// digests (after a restore).
  void truncate(std::size_t events) {
    events_.resize(events);
    resync();
  }

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] const std::string& first_mismatch() const {
    return mismatch_;
  }

 private:
  void resync() {
    digests_.clear();
    for (const MeasureAccumulator& acc : subsets_) {
      digests_.push_back(acc.digest());
    }
  }

  void compare(std::size_t i, const TraceEvent& ev) {
    const MeasureAccumulator& acc = subsets_[i];
    for (const MeasureField f : kAllMeasureFields) {
      if (!acc.tracks(f)) {
        continue;
      }
      ComplexityReport best;
      for (Pid pid = 0; pid < all_.process_count(); ++pid) {
        const ComplexityReport want = field_report(all_, f, pid);
        best = best.max_with(want);
        if (!same_report(field_report(acc, f, pid), want)) {
          note(std::string(name(f)) + " of pid " + std::to_string(pid), i,
               ev);
        }
      }
      if (!same_report(acc.max_over_pids(f), best)) {
        note(std::string(name(f)) + " max over pids", i, ev);
      }
      if (f == MeasureField::CfSession) {
        for (Pid pid = 0; pid < all_.process_count(); ++pid) {
          if (acc.contention_free_session_count(pid) !=
              all_.contention_free_session_count(pid)) {
            note("cf-session count", i, ev);
          }
        }
      }
    }
  }

  void note(const std::string& what, std::size_t subset,
            const TraceEvent& ev) {
    if (mismatch_.empty()) {
      mismatch_ = what + " (subset " + std::to_string(subset) +
                  ") after seq " + std::to_string(ev.seq);
    }
  }

  const Sim& sim_;
  const MeasureAccumulator& all_;
  const std::vector<MeasureAccumulator>& subsets_;
  std::vector<std::uint64_t> digests_;
  std::vector<TraceEvent> events_;
  std::string mismatch_;
};

TEST(StreamingMeasures, FieldSubsetsMatchTheAllFieldsAccumulator) {
  // Every registry mutex at n=2..6 under a burst scheduler with crash
  // plans and snapshot/restore points: an accumulator of any field subset
  // reports exactly what the all-fields accumulator reports for its
  // fields at every step, throws on the others, and — restored by
  // assignment — ends with the digest of a fresh one fed the surviving
  // events.
  const auto& registry = AlgorithmRegistry::instance();
  const std::vector<std::vector<MeasureField>> subsets = field_subsets();
  for (int n = 2; n <= 6; ++n) {
    for (const MutexAlgorithmEntry* entry : registry.mutex_for_n(n)) {
      const std::uint64_t seed = static_cast<std::uint64_t>(n);
      const std::string what = entry->info.name + " n=" + std::to_string(n);
      SCOPED_TRACE(what);
      Sim sim;
      sim.set_trace_recording(false);
      MeasureAccumulator all(n);
      std::vector<MeasureAccumulator> accs;
      for (const std::vector<MeasureField>& subset : subsets) {
        accs.emplace_back(n, subset);
      }
      sim.add_sink(all);
      for (MeasureAccumulator& acc : accs) {
        sim.add_sink(acc);
      }
      SubsetChecker check(sim, all, accs);
      sim.add_sink(check);
      auto alg = setup_mutex(sim, entry->factory, n, /*sessions=*/2);
      sim.crash_after(static_cast<Pid>(seed % n), 3 + seed);
      sim.crash_after(n - 1, 6);
      sim.mark_rewind_base();

      std::mt19937_64 rng(seed * 7'919);
      const auto units = static_cast<std::uint64_t>(12 * n);
      for (int restore = 0; restore < 3; ++restore) {
        BurstScheduler lead(rng());
        drive(sim, lead, RunLimits{1 + rng() % units});
        Sim::RewindMark mark;
        sim.capture_mark(mark);
        const MeasureAccumulator saved_all = all;
        const std::vector<MeasureAccumulator> saved = accs;
        const std::size_t saved_events = check.events().size();
        BurstScheduler abandoned(rng());
        drive(sim, abandoned, RunLimits{1 + rng() % units});
        sim.rewind_to_mark(mark);
        all = saved_all;
        for (std::size_t i = 0; i < accs.size(); ++i) {
          accs[i] = saved[i];
        }
        check.truncate(saved_events);
      }
      BurstScheduler last(rng());
      drive(sim, last, RunLimits{units});
      ASSERT_EQ(check.first_mismatch(), "");

      for (std::size_t i = 0; i < subsets.size(); ++i) {
        MeasureAccumulator fresh(n, subsets[i]);
        for (const TraceEvent& ev : check.events()) {
          fresh.on_event(ev);
        }
        EXPECT_EQ(accs[i].digest(), fresh.digest()) << "subset " << i;
        for (const MeasureField f : kAllMeasureFields) {
          if (!accs[i].tracks(f)) {
            EXPECT_THROW((void)field_report(accs[i], f, 0), std::logic_error)
                << "subset " << i << " " << name(f);
            EXPECT_THROW((void)accs[i].max_over_pids(f), std::logic_error)
                << "subset " << i << " " << name(f);
          }
        }
        if (!accs[i].tracks(MeasureField::CfSession)) {
          EXPECT_THROW((void)accs[i].contention_free_session_count(0),
                       std::logic_error)
              << "subset " << i;
        }
      }
    }
  }
}

TEST(StreamingMeasures, DigestCoversOnlyTheTrackedFields) {
  // Two histories that differ only in what a field set does not track
  // leave equal digests; the all-fields accumulator tells them apart.
  const auto feed = [](MeasureAccumulator& acc, bool cs_accesses,
                       bool sections) {
    TraceEvent change;
    change.kind = TraceEvent::Kind::SectionChange;
    change.pid = 0;
    TraceEvent access;
    access.kind = TraceEvent::Kind::Access;
    access.pid = 0;
    access.access.kind = AccessKind::Write;
    access.access.width = 1;
    const auto move = [&](Section from, Section to) {
      if (sections) {
        change.from = from;
        change.to = to;
        acc.on_event(change);
      }
    };
    move(Section::Remainder, Section::Entry);
    access.access.reg = 0;
    acc.on_event(access);
    move(Section::Entry, Section::Critical);
    if (cs_accesses) {
      for (RegId r = 1; r <= 3; ++r) {
        access.access.reg = r;
        acc.on_event(access);
      }
    }
    move(Section::Critical, Section::Exit);
    access.access.reg = 0;
    acc.on_event(access);
    move(Section::Exit, Section::Remainder);
  };
  const MeasureField entry_exit[] = {MeasureField::CleanEntry,
                                     MeasureField::Exit};
  MeasureAccumulator a(2, entry_exit);
  MeasureAccumulator b(2, entry_exit);
  feed(a, /*cs_accesses=*/true, /*sections=*/true);
  feed(b, /*cs_accesses=*/false, /*sections=*/true);
  EXPECT_EQ(a.digest(), b.digest());
  MeasureAccumulator all_a(2);
  MeasureAccumulator all_b(2);
  feed(all_a, true, true);
  feed(all_b, false, true);
  EXPECT_NE(all_a.digest(), all_b.digest());

  // Totals ignore the section changes.
  const MeasureField totals[] = {MeasureField::Total};
  MeasureAccumulator t(2, totals);
  MeasureAccumulator u(2, totals);
  feed(t, true, /*sections=*/true);
  feed(u, true, /*sections=*/false);
  EXPECT_EQ(t.digest(), u.digest());

  // No field tracked: nothing is measured or hashed.
  MeasureAccumulator none(2, {});
  const std::uint64_t empty = none.digest();
  feed(none, true, true);
  EXPECT_EQ(none.digest(), empty);
}

TEST(StreamingMeasures, SinkCanBeRemoved) {
  Sim sim;
  const RegId r = sim.memory().add_register("r", 8);
  MeasureAccumulator acc(1);
  sim.add_sink(acc);
  sim.spawn("p", [r](ProcessContext& ctx) -> Task<void> {
    co_await ctx.write(r, 1);
    co_await ctx.write(r, 2);
  });
  sim.step(0);
  sim.remove_sink(acc);
  sim.step(0);
  EXPECT_EQ(acc.total(0).steps, 1);          // only the first access seen
  EXPECT_EQ(sim.trace().access_count(), 2u);  // the trace saw both
}

}  // namespace
}  // namespace cfc
