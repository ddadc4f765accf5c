// The unified Study/Campaign engine: differential equivalence against the
// legacy per-problem drivers (which now forward here — plus an independent
// from-first-principles reference), campaign dedup/interleaving semantics,
// thread-count invariance down to byte-identical canonical JSON, and the
// repaired detector legacy-overload result type.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/naming_complexity.h"
#include "analysis/study.h"
#include "core/adversary.h"
#include "core/algorithm_registry.h"
#include "core/measures.h"
#include "core/streaming_measures.h"
#include "sched/sched.h"

namespace cfc {
namespace {

void expect_reports_equal(const ComplexityReport& a,
                          const ComplexityReport& b,
                          const std::string& what) {
  EXPECT_EQ(a.steps, b.steps) << what;
  EXPECT_EQ(a.registers, b.registers) << what;
  EXPECT_EQ(a.read_steps, b.read_steps) << what;
  EXPECT_EQ(a.write_steps, b.write_steps) << what;
  EXPECT_EQ(a.read_registers, b.read_registers) << what;
  EXPECT_EQ(a.write_registers, b.write_registers) << what;
  EXPECT_EQ(a.atomicity, b.atomicity) << what;
  EXPECT_EQ(a.truncated, b.truncated) << what;
}

// --- Differential: the study path reproduces an independent
// from-first-principles measurement (solo runs + streaming accumulator,
// written out longhand here, no shared engine code). ---

TEST(StudyDifferential, MutexCfMatchesFirstPrinciplesReference) {
  const MutexFactory make =
      AlgorithmRegistry::instance().mutex("lamport-fast").factory;
  const int n = 8;

  ComplexityReport ref_session;
  ComplexityReport ref_entry;
  ComplexityReport ref_exit;
  for (Pid pid = 0; pid < n; ++pid) {
    Sim sim;
    sim.set_access_policy(AccessPolicy::RegistersOnly);
    MeasureAccumulator acc(n);
    sim.add_sink(acc);
    auto alg = setup_mutex(sim, make, n, 1);
    SoloScheduler solo(pid);
    // A solo run ends with SchedulerStopped (the other processes never
    // start); only budget exhaustion signals failure.
    ASSERT_NE(drive(sim, solo), RunOutcome::BudgetExhausted);
    ref_session = ref_session.max_with(acc.contention_free_session_max(pid));
    ref_entry = ref_entry.max_with(acc.clean_entry_max(pid));
    ref_exit = ref_exit.max_with(acc.exit_max(pid));
  }

  const StudyResult r = run_study(StudySpec::of("lamport-fast")
                                      .kind(StudyKind::Mutex)
                                      .n(n)
                                      .policy(AccessPolicy::RegistersOnly)
                                      .contention_free());
  ASSERT_TRUE(r.has_cf);
  EXPECT_FALSE(r.has_wc);
  expect_reports_equal(r.cf, ref_session, "session");
  expect_reports_equal(r.cf_entry, ref_entry, "entry");
  expect_reports_equal(r.cf_exit, ref_exit, "exit");
  EXPECT_EQ(r.subject, "lamport-fast");
}

// --- Differential: the legacy adapters and the study path agree bit for
// bit on every kind (same seeds, any thread count). ---

TEST(StudyDifferential, LegacyDriversMatchStudyPath) {
  const AlgorithmRegistry& registry = AlgorithmRegistry::instance();
  ExperimentRunner seq(1);
  ExperimentRunner pool(4);

  for (ExperimentRunner* runner : {&seq, &pool}) {
    // Mutex cf.
    const MutexFactory kessels = registry.mutex("kessels-tree").factory;
    const MutexCfResult legacy_cf = measure_mutex_contention_free(
        kessels, 8, AccessPolicy::RegistersOnly, 0, runner);
    const StudyResult study_cf =
        run_study(StudySpec::of("kessels-tree")
                      .kind(StudyKind::Mutex)
                      .n(8)
                      .policy(AccessPolicy::RegistersOnly)
                      .contention_free(),
                  runner);
    expect_reports_equal(legacy_cf.session, study_cf.cf, "mutex cf");
    expect_reports_equal(legacy_cf.entry, study_cf.cf_entry, "mutex entry");
    expect_reports_equal(legacy_cf.exit, study_cf.cf_exit, "mutex exit");
    EXPECT_EQ(legacy_cf.measured_atomicity, study_cf.measured_atomicity);

    // Mutex wc (exhaustive, certified).
    WorstCaseSearchOptions exhaustive;
    exhaustive.strategy = SearchStrategy::Exhaustive;
    exhaustive.limits.max_depth = 14;
    const MutexFactory peterson = registry.mutex("peterson-2p").factory;
    const MutexWcSearchResult legacy_wc =
        search_mutex_worst_case(peterson, 2, 1, exhaustive, runner);
    const StudyResult study_wc = run_study(StudySpec::of("peterson-2p")
                                               .kind(StudyKind::Mutex)
                                               .n(2)
                                               .worst_case(exhaustive),
                                           runner);
    expect_reports_equal(legacy_wc.entry, study_wc.wc_entry, "wc entry");
    expect_reports_equal(legacy_wc.exit, study_wc.wc_exit, "wc exit");
    EXPECT_EQ(legacy_wc.schedules_tried, study_wc.schedules_tried);
    EXPECT_EQ(legacy_wc.states_visited, study_wc.states_visited);
    EXPECT_EQ(legacy_wc.violations, study_wc.violations);
    EXPECT_EQ(legacy_wc.certified, study_wc.certified);

    // Naming battery.
    const NamingFactory taf = registry.naming("taf-tree").factory;
    const NamingAlgMeasurement legacy_naming =
        measure_naming(taf, 8, {1, 2, 3}, runner);
    const StudyResult study_naming = run_study(StudySpec::of("taf-tree")
                                                   .kind(StudyKind::Naming)
                                                   .n(8)
                                                   .contention_free()
                                                   .worst_case()
                                                   .seeds({1, 2, 3}),
                                               runner);
    EXPECT_EQ(legacy_naming.name, study_naming.subject);
    expect_reports_equal(legacy_naming.cf, study_naming.cf, "naming cf");
    expect_reports_equal(legacy_naming.wc, study_naming.wc, "naming wc");

    // Detector cf + wc.
    const DetectorFactory splitter =
        registry.detector("splitter-tree-l2").factory;
    const ComplexityReport legacy_dcf =
        measure_detector_contention_free(splitter, 8, runner);
    WorstCaseSearchOptions random;
    random.strategy = SearchStrategy::Random;
    random.seeds = {1, 2, 3, 4};
    const DetectorWcSearchResult legacy_dwc =
        search_detector_worst_case(splitter, 8, random, runner);
    const StudyResult study_detector =
        run_study(StudySpec::of("splitter-tree-l2")
                      .kind(StudyKind::Detector)
                      .n(8)
                      .contention_free()
                      .worst_case(random),
                  runner);
    expect_reports_equal(legacy_dcf, study_detector.cf, "detector cf");
    expect_reports_equal(legacy_dwc.best, study_detector.wc, "detector wc");
    EXPECT_EQ(legacy_dwc.schedules_tried, study_detector.schedules_tried);
    EXPECT_EQ(legacy_dwc.truncated, study_detector.truncated);
  }
}

// --- Differential: a contention-free block (one Sim rewound between
// pids) measures every pid exactly as a fresh Sim per pid does, at and
// around the block edges. ---

/// The reference: `pid`'s solo session on a fresh, trace-recording Sim.
detail::MutexCfPid fresh_solo(const MutexFactory& make, int n, Pid pid) {
  Sim sim;
  MeasureAccumulator acc(n);
  sim.add_sink(acc);
  auto alg = setup_mutex(sim, make, n, 1);
  SoloScheduler solo(pid);
  EXPECT_NE(drive(sim, solo), RunOutcome::BudgetExhausted);
  EXPECT_EQ(acc.contention_free_session_count(pid), 1);
  return {acc.contention_free_session_max(pid), acc.clean_entry_max(pid),
          acc.exit_max(pid), acc.total(pid).atomicity};
}

/// Checks every block of pids [0, pid_limit) against the fresh-Sim
/// reference, pid by pid; returns the reference maxima over those pids.
detail::MutexCfPid expect_cf_blocks_match(const MutexFactory& make, int n,
                                          int pid_limit,
                                          const std::string& what) {
  detail::MutexCfPid best;
  const auto limit = static_cast<std::size_t>(pid_limit);
  for (std::size_t first = 0; first < limit; first += detail::kCfPidBlock) {
    const std::size_t last = std::min(first + detail::kCfPidBlock, limit);
    const std::vector<detail::MutexCfPid> block =
        detail::measure_mutex_cf_block(make, n, AccessPolicy::Unrestricted,
                                       static_cast<Pid>(first),
                                       static_cast<Pid>(last));
    EXPECT_EQ(block.size(), last - first) << what;
    for (std::size_t i = first; i < last && i - first < block.size(); ++i) {
      const detail::MutexCfPid ref = fresh_solo(make, n, static_cast<Pid>(i));
      const detail::MutexCfPid& got = block[i - first];
      const std::string at = what + " pid " + std::to_string(i);
      expect_reports_equal(got.session, ref.session, at + " session");
      expect_reports_equal(got.entry, ref.entry, at + " entry");
      expect_reports_equal(got.exit, ref.exit, at + " exit");
      EXPECT_EQ(got.atomicity, ref.atomicity) << at;
      best.session = best.session.max_with(ref.session);
      best.entry = best.entry.max_with(ref.entry);
      best.exit = best.exit.max_with(ref.exit);
      best.atomicity = std::max(best.atomicity, ref.atomicity);
    }
  }
  return best;
}

/// A solo-only lock whose entry cost grows with the sessions run before it
/// on the same memory (it reads a session counter once per earlier
/// session). Registry mutexes leave memory quiescent after a session, so
/// only a subject like this shows whether a block really gives every pid
/// a fresh Sim.
class SessionCountingLock final : public MutexAlgorithm {
 public:
  explicit SessionCountingLock(RegisterFile& mem)
      : count_(mem.add_register("sessions", 16)) {}

  Task<void> enter(ProcessContext& ctx, int /*slot*/) override {
    const Value before = co_await ctx.read(count_);
    for (Value i = 0; i < before; ++i) {
      co_await ctx.read(count_);
    }
    co_await ctx.write(count_, before + 1);
  }
  Task<void> exit(ProcessContext& ctx, int /*slot*/) override {
    co_await ctx.read(count_);
  }
  Task<Value> try_enter(ProcessContext& ctx, int slot, RegId) override {
    co_await enter(ctx, slot);
    co_return 1;
  }
  [[nodiscard]] int capacity() const override { return 1 << 16; }
  [[nodiscard]] int atomicity() const override { return 16; }
  [[nodiscard]] std::string algorithm_name() const override {
    return "session-counting-lock";
  }

 private:
  RegId count_;
};

TEST(StudyDifferential, MutexCfBlocksMatchFreshSimPerPid) {
  for (const int n : {1, 63, 64, 65, 129}) {
    const std::vector<const MutexAlgorithmEntry*> subjects =
        AlgorithmRegistry::instance().mutex_for_n(n);
    EXPECT_FALSE(subjects.empty()) << "n=" << n;
    for (const MutexAlgorithmEntry* e : subjects) {
      (void)expect_cf_blocks_match(e->factory, n, n,
                                   e->info.name + " n=" + std::to_string(n));
    }
    const MutexFactory counting = [](RegisterFile& mem, int) {
      return std::make_unique<SessionCountingLock>(mem);
    };
    (void)expect_cf_blocks_match(counting, n, n,
                                 "session-counting-lock n=" +
                                     std::to_string(n));
  }
}

TEST(StudyDifferential, SampledCfBlocksMatchFreshSimPerPid) {
  // sample_pids(70) at n=128: a full block plus a 6-pid tail block.
  const int n = 128;
  const int sample = 70;
  for (const MutexAlgorithmEntry* e :
       AlgorithmRegistry::instance().mutex_for_n(n)) {
    const std::string what = e->info.name + " n=128 sample=70";
    const detail::MutexCfPid ref =
        expect_cf_blocks_match(e->factory, n, sample, what);
    Campaign campaign;
    campaign.add(StudySpec::of(e->info.name)
                     .kind(StudyKind::Mutex)
                     .n(n)
                     .sample_pids(sample)
                     .contention_free());
    CampaignStats stats;
    const StudyResult r = campaign.run(nullptr, &stats)[0];
    EXPECT_EQ(stats.cells, 2u) << what;
    expect_reports_equal(r.cf, ref.session, what + " study session");
    expect_reports_equal(r.cf_entry, ref.entry, what + " study entry");
    expect_reports_equal(r.cf_exit, ref.exit, what + " study exit");
    EXPECT_EQ(r.measured_atomicity, ref.atomicity) << what;
  }
}

// --- Differential: detector cf blocks equal a fresh Sim per pid. ---

/// One solo detector run of `pid` on a freshly built Sim: pid's whole-run
/// total, truncated when the run exhausted its budget.
ComplexityReport fresh_detector_solo(const DetectorFactory& make, int n,
                                     Pid pid) {
  Sim sim;
  sim.set_trace_recording(false);
  MeasureAccumulator acc(n);
  sim.add_sink(acc);
  auto det = setup_detection(sim, make, n);
  SoloScheduler solo(pid);
  const bool cut = drive(sim, solo) == RunOutcome::BudgetExhausted;
  EXPECT_EQ(sim.output(pid), 1);
  ComplexityReport r = acc.total(pid);
  r.truncated = r.truncated || cut;
  return r;
}

/// A solo-only detector whose cost grows with the runs before it on the
/// same memory (it reads a run counter once per earlier run) — the
/// detector analogue of SessionCountingLock. It always outputs 1, so it is
/// no detector under contention; only its solo runs are measured.
class RunCountingDetector final : public Detector {
 public:
  explicit RunCountingDetector(RegisterFile& mem)
      : count_(mem.add_register("runs", 16)) {}

  Task<void> detect(ProcessContext& ctx, int /*slot*/) override {
    const Value before = co_await ctx.read(count_);
    for (Value i = 0; i < before; ++i) {
      co_await ctx.read(count_);
    }
    co_await ctx.write(count_, before + 1);
    ctx.set_output(1);
  }
  [[nodiscard]] int capacity() const override { return 1 << 16; }
  [[nodiscard]] int atomicity() const override { return 16; }
  [[nodiscard]] std::string algorithm_name() const override {
    return "run-counting-detector";
  }

 private:
  RegId count_;
};

TEST(StudyDifferential, DetectorCfBlocksMatchFreshSimPerPid) {
  std::vector<std::pair<std::string, DetectorFactory>> subjects;
  for (const DetectorAlgorithmEntry* e :
       AlgorithmRegistry::instance().detector_algorithms()) {
    subjects.emplace_back(e->info.name, e->factory);
  }
  EXPECT_FALSE(subjects.empty());
  subjects.emplace_back("run-counting-detector",
                        [](RegisterFile& mem, int) {
                          return std::make_unique<RunCountingDetector>(mem);
                        });
  for (const int n : {2, 3, 4, 8, 64, 65}) {
    for (const auto& [name, make] : subjects) {
      Sim probe;
      if (make(probe.memory(), n)->capacity() < n) {
        continue;
      }
      const std::string what = name + " n=" + std::to_string(n);
      ComplexityReport best;
      const auto limit = static_cast<std::size_t>(n);
      for (std::size_t first = 0; first < limit;
           first += detail::kCfPidBlock) {
        const std::size_t last = std::min(first + detail::kCfPidBlock, limit);
        const std::vector<detail::CfPid> block =
            detail::measure_detector_cf_block(make, n,
                                              static_cast<Pid>(first),
                                              static_cast<Pid>(last));
        ASSERT_EQ(block.size(), last - first) << what;
        for (std::size_t i = first; i < last; ++i) {
          const ComplexityReport ref =
              fresh_detector_solo(make, n, static_cast<Pid>(i));
          const detail::CfPid& got = block[i - first];
          const std::string at = what + " pid " + std::to_string(i);
          expect_reports_equal(got.session, ref, at + " run");
          expect_reports_equal(got.entry, ComplexityReport{}, at + " entry");
          expect_reports_equal(got.exit, ComplexityReport{}, at + " exit");
          EXPECT_EQ(got.atomicity, ref.atomicity) << at;
          best = best.max_with(ref);
        }
      }
      // The study reads the same blocks: one cell per 64 pids.
      CampaignStats stats;
      const StudyResult r =
          Campaign()
              .add(StudySpec::of(name)
                       .kind(StudyKind::Detector)
                       .n(n)
                       .factory(make)
                       .contention_free())
              .run(nullptr, &stats)[0];
      EXPECT_EQ(stats.cells, (limit + detail::kCfPidBlock - 1) /
                                 detail::kCfPidBlock)
          << what;
      expect_reports_equal(r.cf, best, what + " study cf");
      EXPECT_EQ(r.measured_atomicity, best.atomicity) << what;
    }
  }
}

// --- Differential: the Study's naming cells measure by streaming; every
// pid's whole-run total equals the trace measure of the same schedule. ---

/// Drives naming battery cell `cell` on `sim` (0 sequential, 1 round-robin,
/// 2 lockstep then round-robin, 3.. random with seeds[cell - 3]). Returns
/// false when the run did not finish.
bool drive_naming_cell(Sim& sim, std::size_t cell, int n,
                       const std::vector<std::uint64_t>& seeds) {
  switch (cell) {
    case 0:
      return run_sequentially(sim);
    case 1: {
      RoundRobinScheduler rr;
      return drive(sim, rr) == RunOutcome::AllDone;
    }
    case 2: {
      std::vector<Pid> group;
      for (Pid p = 0; p < n; ++p) {
        group.push_back(p);
      }
      EXPECT_FALSE(
          lockstep_symmetry_adversary(sim, group).identical_group_terminated);
      RoundRobinScheduler rr;
      return drive(sim, rr) == RunOutcome::AllDone;
    }
    default: {
      RandomScheduler rnd(seeds[cell - 3]);
      return drive(sim, rnd) == RunOutcome::AllDone;
    }
  }
}

bool naming_supports(const NamingAlgorithmEntry& e, int n) {
  if ((e.info.max_n != 0 && n > e.info.max_n) ||
      (e.info.pow2_n_only && !std::has_single_bit(static_cast<unsigned>(n)))) {
    return false;
  }
  Sim probe;
  return e.factory(probe.memory(), n)->capacity() >= n;
}

TEST(StudyDifferential, NamingStreamingMatchesTraceMeasures) {
  const std::vector<std::uint64_t> seeds = {1, 2, 3};
  std::size_t subjects_at_n64 = 0;
  for (const NamingAlgorithmEntry* e :
       AlgorithmRegistry::instance().naming_algorithms()) {
    for (const int n : {2, 3, 8, 64}) {
      if (!naming_supports(*e, n)) {
        continue;
      }
      subjects_at_n64 += n == 64 ? 1 : 0;
      ComplexityReport cf;
      ComplexityReport wc;
      for (std::size_t cell = 0; cell < 3 + seeds.size(); ++cell) {
        const std::string what = e->info.name + " n=" + std::to_string(n) +
                                 " cell " + std::to_string(cell);
        // Streaming, as the Study cell measures (a trace only for the
        // lockstep adversary, which reads observations from it).
        Sim live;
        live.set_trace_recording(cell == 2);
        MeasureAccumulator acc(n);
        live.add_sink(acc);
        auto live_alg = setup_naming(live, e->factory, n);
        const bool live_done = drive_naming_cell(live, cell, n, seeds);
        // Reference: the same schedule, trace recorded and measured.
        Sim ref;
        auto ref_alg = setup_naming(ref, e->factory, n);
        const bool ref_done = drive_naming_cell(ref, cell, n, seeds);
        ASSERT_EQ(live_done, ref_done) << what;
        ASSERT_EQ(live.next_seq(), ref.next_seq()) << what;
        ComplexityReport best;
        for (Pid p = 0; p < n; ++p) {
          const ComplexityReport want = measure_all(ref.trace(), p);
          expect_reports_equal(acc.total(p), want,
                               what + " pid " + std::to_string(p));
          EXPECT_EQ(live.output(p), ref.output(p)) << what;
          best = best.max_with(want);
        }
        best.truncated = best.truncated || !ref_done;
        if (cell == 0) {
          cf = best;
        }
        wc = wc.max_with(best);
      }
      const StudyResult r = run_study(StudySpec::of(e->info.name)
                                          .kind(StudyKind::Naming)
                                          .n(n)
                                          .contention_free()
                                          .worst_case()
                                          .seeds(seeds));
      const std::string what = e->info.name + " n=" + std::to_string(n);
      expect_reports_equal(r.cf, cf, what + " study cf");
      expect_reports_equal(r.wc, wc, what + " study wc");
    }
  }
  EXPECT_EQ(subjects_at_n64,
            AlgorithmRegistry::instance().naming_algorithms().size());
}

// --- Campaign semantics. ---

TEST(Campaign, BatchedResultsEqualIndividualRuns) {
  // One mixed-kind campaign (cells interleaved, shared flat grid) must
  // reproduce the one-spec-at-a-time results exactly.
  const std::vector<StudySpec> specs = {
      StudySpec::of("lamport-fast")
          .kind(StudyKind::Mutex)
          .n(4)
          .policy(AccessPolicy::RegistersOnly)
          .contention_free(),
      StudySpec::of("tas-scan")
          .kind(StudyKind::Naming)
          .n(8)
          .contention_free()
          .worst_case()
          .seeds({1, 2}),
      StudySpec::of("splitter-tree-l2")
          .kind(StudyKind::Detector)
          .n(4)
          .contention_free(),
  };
  Campaign campaign;
  campaign.add(specs);
  const std::vector<StudyResult> batched = campaign.run();
  ASSERT_EQ(batched.size(), specs.size());

  const StudyJsonOptions no_timing{.include_timing = false};
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const StudyResult single = run_study(specs[i]);
    EXPECT_EQ(to_json(batched[i], no_timing), to_json(single, no_timing))
        << "spec " << i;
  }
}

TEST(Campaign, DeduplicatesIdenticalRegistryMeasurements) {
  const StudySpec spec = StudySpec::of("lamport-fast")
                             .kind(StudyKind::Mutex)
                             .n(4)
                             .policy(AccessPolicy::RegistersOnly)
                             .contention_free();
  Campaign campaign;
  campaign.add(spec);
  campaign.add(spec);  // identical request: must share the task
  // A third spec differing only in sample normalization (sample_pids=0 and
  // sample_pids=n measure the same pids) also dedups.
  StudySpec normalized = spec;
  normalized.sample_pids(4);
  campaign.add(normalized);

  CampaignStats stats;
  const std::vector<StudyResult> results = campaign.run(nullptr, &stats);
  EXPECT_EQ(stats.specs, 3u);
  EXPECT_EQ(stats.tasks_planned, 1u);
  EXPECT_EQ(stats.tasks_deduplicated, 2u);
  EXPECT_EQ(stats.cells, 1u);  // one block of solo runs, shared by all specs

  const StudyJsonOptions no_timing{.include_timing = false};
  EXPECT_EQ(to_json(results[0], no_timing), to_json(results[1], no_timing));
  EXPECT_EQ(to_json(results[0], no_timing), to_json(results[2], no_timing));
}

TEST(Campaign, AdhocFactoriesAreNeverDeduplicated) {
  const MutexFactory lamport =
      AlgorithmRegistry::instance().mutex("lamport-fast").factory;
  StudySpec adhoc = StudySpec::of("custom-label")
                        .kind(StudyKind::Mutex)
                        .n(2)
                        .contention_free();
  adhoc.factory(lamport);
  Campaign campaign;
  campaign.add(adhoc);
  campaign.add(adhoc);
  CampaignStats stats;
  const std::vector<StudyResult> results = campaign.run(nullptr, &stats);
  EXPECT_EQ(stats.tasks_planned, 2u);
  EXPECT_EQ(stats.tasks_deduplicated, 0u);
  EXPECT_EQ(results[0].subject, "custom-label");
}

TEST(Campaign, ThreadCountsProduceByteIdenticalJson) {
  // The acceptance bar: a mixed campaign serialized canonically (timing
  // excluded) is byte-identical between the sequential reference engine
  // and a thread pool.
  Campaign campaign;
  campaign.add(StudySpec::of("kessels-tree")
                   .kind(StudyKind::Mutex)
                   .n(8)
                   .policy(AccessPolicy::RegistersOnly)
                   .contention_free()
                   .worst_case(SearchStrategy::Random)
                   .seeds({1, 2, 3, 4}));
  campaign.add(StudySpec::of("tas-read-search")
                   .kind(StudyKind::Naming)
                   .n(16)
                   .contention_free()
                   .worst_case()
                   .seeds({1, 2, 3}));
  campaign.add(StudySpec::of("splitter-tree-l2")
                   .kind(StudyKind::Detector)
                   .n(8)
                   .contention_free()
                   .worst_case(SearchStrategy::Random)
                   .seeds({5, 6}));

  ExperimentRunner seq(1);
  ExperimentRunner pool(4);
  const std::vector<StudyResult> a = campaign.run(&seq);
  const std::vector<StudyResult> b = campaign.run(&pool);
  const StudyJsonOptions no_timing{.include_timing = false};
  EXPECT_EQ(to_json(a, no_timing), to_json(b, no_timing));
}

TEST(Campaign, NamingWcOnlyMasksContentionFree) {
  const StudyResult r = run_study(StudySpec::of("tas-scan")
                                      .kind(StudyKind::Naming)
                                      .n(8)
                                      .worst_case()
                                      .seeds({1}));
  EXPECT_TRUE(r.has_wc);
  EXPECT_FALSE(r.has_cf);
  EXPECT_EQ(r.cf.steps, 0);
  EXPECT_EQ(r.measured_atomicity, 0);
  EXPECT_GE(r.wc.steps, 7);  // n-1 for tas-scan
}

TEST(Campaign, ResolutionErrorsSurfaceOnTheCallingThread) {
  EXPECT_THROW(
      (void)run_study(
          StudySpec::of("no-such-algorithm").kind(StudyKind::Mutex).n(2)),
      std::out_of_range);
  // Capacity violation: peterson-2p at n=3.
  EXPECT_THROW((void)run_study(StudySpec::of("peterson-2p")
                                   .kind(StudyKind::Mutex)
                                   .n(3)
                                   .contention_free()),
               std::invalid_argument);
}

// --- The reduction policy at the study level. ---

TEST(StudyReduction, ExhaustiveDefaultsToSourceDporAndSurfacesCounters) {
  // StudySpec::worst_case(Exhaustive) selects the reduced certified
  // search; the reduction identity and counters surface in the result
  // (and its canonical JSON), and the certified values match the
  // unreduced tree's — the POR differential suite proves that wholesale,
  // this spot-checks the study integration.
  const StudyResult r = run_study(StudySpec::of("peterson-2p")
                                      .kind(StudyKind::Mutex)
                                      .n(2)
                                      .worst_case(SearchStrategy::Exhaustive)
                                      .depth(14));
  EXPECT_EQ(r.wc_reduction, ReductionPolicy::SourceDpor);
  EXPECT_TRUE(r.certified);
  EXPECT_GT(r.races_detected, 0u);
  EXPECT_GT(r.backtrack_points, 0u);
  const std::string json = to_json(r);
  EXPECT_NE(json.find("\"policy\": \"source-dpor\""), std::string::npos);

  const StudyResult off = run_study(StudySpec::of("peterson-2p")
                                        .kind(StudyKind::Mutex)
                                        .n(2)
                                        .worst_case(SearchStrategy::Exhaustive)
                                        .depth(14)
                                        .reduction(ReductionPolicy::Off));
  EXPECT_EQ(off.wc_reduction, ReductionPolicy::Off);
  EXPECT_EQ(off.races_detected, 0u);
  expect_reports_equal(r.wc_entry, off.wc_entry, "entry vs unreduced");
  expect_reports_equal(r.wc_exit, off.wc_exit, "exit vs unreduced");
  EXPECT_EQ(r.certified, off.certified);
  // Distinct reduction policies must not deduplicate into one task.
  Campaign campaign;
  campaign.add(StudySpec::of("peterson-2p")
                   .kind(StudyKind::Mutex)
                   .n(2)
                   .worst_case(SearchStrategy::Exhaustive)
                   .depth(14));
  campaign.add(StudySpec::of("peterson-2p")
                   .kind(StudyKind::Mutex)
                   .n(2)
                   .worst_case(SearchStrategy::Exhaustive)
                   .depth(14)
                   .reduction(ReductionPolicy::Off));
  CampaignStats stats;
  (void)campaign.run(nullptr, &stats);
  EXPECT_EQ(stats.tasks_planned, 2u);
  EXPECT_EQ(stats.tasks_deduplicated, 0u);

  // The fluent order must not matter: replacing the budget struct after
  // worst_case(Exhaustive) keeps the reduced default (a limits struct
  // naming no policy preserves the current one), while a struct that
  // names one wins.
  StudySpec reordered = StudySpec::of("peterson-2p")
                            .kind(StudyKind::Mutex)
                            .n(2)
                            .worst_case(SearchStrategy::Exhaustive);
  ExploreLimits budgets;
  budgets.max_depth = 14;
  reordered.limits(budgets);
  EXPECT_EQ(reordered.search.limits.reduction, ReductionPolicy::SourceDpor);
  EXPECT_EQ(reordered.search.limits.max_depth, 14);
  reordered.reduction(ReductionPolicy::Off);
  ExploreLimits named;
  named.reduction = ReductionPolicy::SourceDpor;
  reordered.limits(named);
  EXPECT_EQ(reordered.search.limits.reduction, ReductionPolicy::SourceDpor);
}

// --- The state budget (ExploreLimits::max_states). ---

/// A certified Exhaustive detector study whose uncapped search completes
/// every run within the depth, so `truncated` can only come from the cap.
StudySpec capped_detector_study(std::uint64_t max_states) {
  ExploreLimits limits;
  limits.max_depth = 40;
  limits.max_states = max_states;
  return StudySpec::of("splitter-tree-l2")
      .kind(StudyKind::Detector)
      .n(3)
      .worst_case(SearchStrategy::Exhaustive)
      .limits(limits);
}

void expect_report_le(const ComplexityReport& capped,
                      const ComplexityReport& full, const char* what) {
  EXPECT_LE(capped.steps, full.steps) << what;
  EXPECT_LE(capped.registers, full.registers) << what;
  EXPECT_LE(capped.read_steps, full.read_steps) << what;
  EXPECT_LE(capped.write_steps, full.write_steps) << what;
  EXPECT_LE(capped.read_registers, full.read_registers) << what;
  EXPECT_LE(capped.write_registers, full.write_registers) << what;
  EXPECT_LE(capped.atomicity, full.atomicity) << what;
}

TEST(StudyStateBudget, CappedSearchIsTruncatedAndUncertified) {
  // max_states caps every engine run (the planner's walk and each work
  // item). A run that hits it sets ExploreStats::state_budget_hit, which a
  // study reports as truncated and not certified: the bounded space was
  // not covered. What it did explore is a part of the uncapped search, so
  // no value exceeds the uncapped one.
  const StudyResult full = run_study(capped_detector_study(0));
  ASSERT_TRUE(full.certified);
  ASSERT_FALSE(full.truncated);
  const StudyResult capped = run_study(capped_detector_study(25));
  EXPECT_TRUE(capped.truncated);
  EXPECT_FALSE(capped.certified);
  EXPECT_LT(capped.states_visited, full.states_visited);
  expect_report_le(capped.wc, full.wc, "wc");
  expect_report_le(capped.wc_entry, full.wc_entry, "wc entry");
  expect_report_le(capped.wc_exit, full.wc_exit, "wc exit");

  const std::string json = to_json(capped);
  EXPECT_NE(json.find("\"truncated\": true,\n    \"certified\": false"),
            std::string::npos)
      << json;
  const StudyResult parsed = study_from_json(json);
  EXPECT_TRUE(parsed.truncated);
  EXPECT_FALSE(parsed.certified);
}

TEST(StudyStateBudget, CapAboveTheSearchSizeChangesNothing) {
  // A cap larger than the whole uncapped search never binds any engine
  // run: the study certifies with identical values and counts.
  const StudyResult full = run_study(capped_detector_study(0));
  ASSERT_TRUE(full.certified);
  const StudyResult roomy =
      run_study(capped_detector_study(full.states_visited + 1));
  EXPECT_TRUE(roomy.certified);
  EXPECT_EQ(roomy.states_visited, full.states_visited);
  const StudyJsonOptions canonical{/*include_timing=*/false};
  EXPECT_EQ(to_json(roomy, canonical), to_json(full, canonical));
}

}  // namespace
}  // namespace cfc
