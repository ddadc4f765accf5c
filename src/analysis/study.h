#ifndef CFC_ANALYSIS_STUDY_H
#define CFC_ANALYSIS_STUDY_H

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/experiment_runner.h"
#include "analysis/explorer.h"
#include "core/contention_detection.h"
#include "core/measures.h"
#include "mutex/mutex_algorithm.h"
#include "naming/naming_algorithm.h"
#include "sched/sim.h"

namespace cfc {

/// The unified Study/Campaign API: one declarative front door for every
/// measurement driver the paper's framework defines — contention-free
/// measurement and worst-case schedule search, for mutual exclusion, naming
/// and contention detection alike. The per-problem entry points in
/// analysis/experiment.h and analysis/naming_complexity.h are thin
/// forwarding adapters over this layer.
///
/// Determinism contract (inherited from the experiment engine): a study's
/// independent cells are fanned across an ExperimentRunner and reduced in a
/// fixed order, so every StudyResult is bit-identical for every thread
/// count; `ExperimentRunner seq(1)` is the reference sequential engine.
/// Only StudyResult::wall_ms is nondeterministic, and the canonical JSON
/// serializer can exclude it (StudyJsonOptions::include_timing).

/// Which of the paper's three problems a study measures.
enum class StudyKind : std::uint8_t { Mutex, Naming, Detector };

[[nodiscard]] const char* name(StudyKind k);

/// How to search for worst cases: the strategy plus its budgets. The
/// Exhaustive/Bounded strategies run the schedule-space Explorer (DFS with
/// mark-based backtracking and visited-state pruning); Random is the
/// legacy seeded sampler. (Naming studies instead run the fixed adversary
/// battery — sequential, round-robin, the Theorem 6 lockstep adversary —
/// plus one random schedule per seed; strategy and limits are ignored.)
struct WorstCaseSearchOptions {
  SearchStrategy strategy = SearchStrategy::Random;
  /// Random: one run per seed, each `budget_per_run` picks long.
  std::vector<std::uint64_t> seeds = {1, 2, 3, 4, 5, 6, 7, 8};
  std::uint64_t budget_per_run = 200'000;
  /// Exhaustive/Bounded: the DFS budgets (including limits.reduction, the
  /// partial-order-reduction policy). Bounded additionally requires
  /// limits.max_preemptions >= 0 (Exhaustive ignores it).
  ExploreLimits limits;
  /// Crash injection, applied after the subject's setup: process p crashes
  /// at its crash_after[p]-th access attempt (Sim::crash_after). An empty
  /// vector injects nothing; entries past n-1 are ignored by the sim.
  /// Part of the measurement identity, so it feeds the campaign dedup key.
  std::vector<std::uint64_t> crash_after;
};

/// Declarative description of one study: a subject (an AlgorithmRegistry
/// name, or an ad-hoc factory with a display label) plus the measurements
/// to run on it. Built fluently:
///
///   StudySpec::of("peterson-2p")
///       .kind(StudyKind::Mutex)
///       .n(2)
///       .contention_free()
///       .worst_case(SearchStrategy::Exhaustive)
///       .depth(20);
///
/// The fluent methods return *this, so specs compose inline and can also be
/// grown incrementally. Fields are public for the engine and for tests;
/// prefer the fluent surface when building specs.
struct StudySpec {
  /// Registry key of the subject, or a display label when an ad-hoc
  /// factory is set. Resolution happens at Campaign::run time.
  std::string subject_name;
  StudyKind study_kind = StudyKind::Mutex;
  int procs = 2;
  /// Mutex worst-case search: entry/exit sessions per process.
  int mutex_sessions = 1;
  /// Mutex contention-free measurement: simulator access policy.
  AccessPolicy access = AccessPolicy::Unrestricted;
  /// Mutex contention-free measurement: how many processes get their own
  /// solo run (0 = all n). Tree algorithms have uniform per-process cost,
  /// so sampling loses nothing there.
  int cf_pid_sample = 0;
  bool want_cf = false;
  bool want_wc = false;
  WorstCaseSearchOptions search;
  /// Ad-hoc subjects: exactly the factory matching `study_kind` may be
  /// set; it overrides registry lookup (and is never deduplicated across
  /// campaign specs — only registry subjects are).
  MutexFactory adhoc_mutex;
  NamingFactory adhoc_naming;
  DetectorFactory adhoc_detector;
  /// Observability wiring (trace() / progress()). Not part of the
  /// measurement identity: excluded from the campaign dedup key, and the
  /// engine guarantees identical results with it on or off.
  std::string trace_path;
  bool want_progress = false;
  std::string progress_path;  ///< empty = human heartbeat to stderr
  int progress_interval_ms = 500;

  [[nodiscard]] static StudySpec of(std::string subject);

  StudySpec& kind(StudyKind k);
  StudySpec& n(int nprocs);
  StudySpec& sessions(int s);
  StudySpec& policy(AccessPolicy p);
  StudySpec& sample_pids(int max_pids);
  StudySpec& contention_free();
  StudySpec& worst_case();
  /// Selects the strategy; an Exhaustive search additionally defaults to
  /// the source-dpor reduction policy (the certified searches' default —
  /// override with reduction() or a full options struct).
  StudySpec& worst_case(SearchStrategy s);
  StudySpec& worst_case(const WorstCaseSearchOptions& options);
  /// The partial-order-reduction policy of the DFS strategies.
  StudySpec& reduction(ReductionPolicy policy);
  StudySpec& seeds(std::vector<std::uint64_t> s);
  /// Crash injection for the worst-case search (per-pid access thresholds;
  /// see WorstCaseSearchOptions::crash_after).
  StudySpec& crash(std::vector<std::uint64_t> after);
  StudySpec& budget(std::uint64_t per_run);
  /// Observability (src/obs/): record a Chrome trace-event / Perfetto
  /// trace of the campaign run to `path`. Purely observational — never
  /// part of the dedup key, never changes any study value; the campaign
  /// honors the first non-empty path among its specs (an already-running
  /// outer tracer wins).
  StudySpec& trace(std::string path);
  /// Observability (src/obs/): emit periodic progress heartbeats while
  /// the campaign runs — JSONL to `path`, or the human format to stderr
  /// when `path` is empty. Observational only, like trace().
  StudySpec& progress(std::string path = {}, int interval_ms = 500);
  /// Replaces the DFS budgets. A struct that names no reduction policy
  /// keeps the one already selected (e.g. worst_case(Exhaustive)'s
  /// source-dpor default), so the fluent order does not matter; use
  /// reduction(ReductionPolicy::Off) to force the unreduced tree.
  StudySpec& limits(const ExploreLimits& l);
  StudySpec& depth(int max_depth);
  StudySpec& factory(MutexFactory f);
  StudySpec& factory(NamingFactory f);
  StudySpec& factory(DetectorFactory f);
};

/// The search counters (CFC_SEARCH_COUNTERS in obs/metrics.h) a
/// StudyResult carries, each under its ExploreStats name, which is also
/// its JSON key. Generated from these lists: the copy from ExploreStats in
/// the study engine, the canonical JSON emission, and the parser.
///
/// X(field, required): the counters inside the "wc" object's "reduction"
/// object, after the policy, in this order. Non-required keys are
/// optional, so payloads written before a counter existed keep parsing as
/// zero.
#define CFC_STUDY_REDUCTION_COUNTERS(X) \
  X(races_detected, true)               \
  X(backtrack_points, true)             \
  X(sleep_blocked, true)                \
  X(cache_hits, false)                  \
  X(work_items, false)                  \
  X(restore_marks, false)

/// X(field): the counters of the "wc" object itself, after
/// schedules_tried, in this order. All required.
#define CFC_STUDY_WC_COUNTERS(X) \
  X(states_visited)              \
  X(violations)

/// The uniform result of one study. Absent measurements are flagged off and
/// zero-valued. Semantics per kind:
///
///  * Mutex: cf is the paper's contention-free session (entry + exit, max
///    over processes), refined by cf_entry / cf_exit; wc_entry / wc_exit
///    are the clean-entry and exit window maxima found by the search and
///    wc is their sum (the paper's worst-case complexity).
///  * Naming: cf is the sequential-schedule max over processes; wc the max
///    over the adversary battery; entry/exit refinements are zero.
///  * Detector: cf is the solo-run max over processes; wc the whole-run
///    max found; entry/exit refinements are zero.
struct StudyResult {
  std::string subject;  ///< resolved algorithm name
  StudyKind kind = StudyKind::Mutex;
  int n = 0;
  int sessions = 1;

  bool has_cf = false;
  ComplexityReport cf;
  ComplexityReport cf_entry;
  ComplexityReport cf_exit;
  int measured_atomicity = 0;

  bool has_wc = false;
  SearchStrategy wc_strategy = SearchStrategy::Random;
  /// The partial-order-reduction policy the search ran under (DFS
  /// strategies; Random reports Off).
  ReductionPolicy wc_reduction = ReductionPolicy::Off;
  /// The search's counters (the two lists above; CFC_SEARCH_COUNTERS
  /// documents each). Thread-count invariant, so the canonical JSON stays
  /// byte-identical at every thread count. Nonzero violations means the
  /// algorithm is unsafe: violating schedules are excluded from the
  /// maxima, so the certification is over the safe schedules only.
#define CFC_STUDY_COUNTER_MEMBER(field, ...) std::uint64_t field = 0;
  CFC_STUDY_REDUCTION_COUNTERS(CFC_STUDY_COUNTER_MEMBER)
  CFC_STUDY_WC_COUNTERS(CFC_STUDY_COUNTER_MEMBER)
#undef CFC_STUDY_COUNTER_MEMBER
  ComplexityReport wc;
  ComplexityReport wc_entry;
  ComplexityReport wc_exit;
  /// Leaves evaluated (completed + truncated runs), or for a naming
  /// battery the schedules run.
  std::uint64_t schedules_tried = 0;
  /// Some run was cut off (budget/depth/preemption bound): the values may
  /// under-report anything beyond the explored space.
  bool truncated = false;
  /// Exhaustive/Bounded only: the whole bounded schedule space was covered
  /// (no max_states cut, i.e. ExploreStats::state_budget_hit unset) — the
  /// values are the exact maxima over it.
  bool certified = false;

  /// Wall-clock measurement time attributed to this study: the summed
  /// durations of its cells (a shared, deduplicated measurement counts
  /// fully for every spec that uses it). Nondeterministic — excluded from
  /// the canonical JSON when StudyJsonOptions::include_timing is false.
  double wall_ms = 0.0;
  /// Phase breakdown of the campaign run this study rode in (the optional
  /// "timing" object of cfc.study.v1): planning (subject resolution,
  /// dedup, grid build), cell execution (== wall_ms, the per-spec summed
  /// cell durations), and the merge (reductions + result assembly).
  /// plan_ms/merge_ms are campaign-wide phases, attributed fully to every
  /// study of the run. Nondeterministic, gated like wall_ms.
  double plan_ms = 0.0;
  double execute_ms = 0.0;
  double merge_ms = 0.0;
};

/// Aggregate counters of one Campaign::run, for observability and tests.
struct CampaignStats {
  std::size_t specs = 0;
  std::size_t tasks_planned = 0;       ///< unique measurement tasks run
  std::size_t tasks_deduplicated = 0;  ///< spec requests served by an
                                       ///< identical earlier task
  std::size_t cells = 0;               ///< schedulable cells fanned out
  /// Wall-clock duration of each cell of the flat grid, in grid (round-
  /// robin interleave) order — cell_wall_ms.size() == cells. The
  /// per-cell timing truth behind the progress heartbeat and the
  /// checkpoint/resume planning in ROADMAP's campaign-service item.
  std::vector<double> cell_wall_ms;
  double plan_ms = 0.0;   ///< resolve/dedup/grid-build phase
  double merge_ms = 0.0;  ///< reduce + result-assembly phase
};

/// A batch of studies executed as one flat cell grid: every spec's
/// independent cells (mutex and detector contention-free solo runs in
/// blocks of detail::kCfPidBlock pids on one rewound Sim, per-schedule
/// naming runs, whole searches) are interleaved round-robin across specs
/// and fanned over ONE ExperimentRunner::parallel_for — no per-spec
/// barriers — then reduced per spec in a fixed order. Identical
/// measurement requests from different specs (same registry subject, kind,
/// n, and measurement parameters, seeds included) are deduplicated: the
/// cells run once and every requesting spec shares the reduced result.
/// Results are returned in spec insertion order and are bit-identical for
/// every thread count.
class Campaign {
 public:
  Campaign() = default;

  Campaign& add(StudySpec spec);
  Campaign& add(std::vector<StudySpec> specs);

  [[nodiscard]] std::size_t size() const { return specs_.size(); }
  [[nodiscard]] const std::vector<StudySpec>& specs() const { return specs_; }

  /// Runs every study. `runner == nullptr` uses the shared hardware-sized
  /// pool; `stats`, when non-null, receives the plan/dedup counters.
  [[nodiscard]] std::vector<StudyResult> run(
      ExperimentRunner* runner = nullptr, CampaignStats* stats = nullptr) const;

 private:
  std::vector<StudySpec> specs_;
};

/// Convenience: a one-spec campaign.
[[nodiscard]] StudyResult run_study(const StudySpec& spec,
                                    ExperimentRunner* runner = nullptr);

/// --- The canonical JSON serialization (schema "cfc.study.v1"). ---

struct StudyJsonOptions {
  /// Emit the nondeterministic timing fields (the "timing" phase object
  /// and wall_ms). Switch off to compare serialized results byte-for-byte
  /// across thread counts or hosts.
  bool include_timing = true;
};

[[nodiscard]] std::string to_json(const StudyResult& r,
                                  const StudyJsonOptions& opts = {});
[[nodiscard]] std::string to_json(const std::vector<StudyResult>& results,
                                  const StudyJsonOptions& opts = {});

/// Parses a single serialized StudyResult (the exact schema to_json
/// emits). Throws std::invalid_argument on malformed input. wall_ms parses
/// to 0.0 when absent.
[[nodiscard]] StudyResult study_from_json(const std::string& json);

namespace detail {

/// Pids per contention-free cell: a Campaign measures a mutex or detector
/// cf study in blocks of this many consecutive pids, one cell each.
inline constexpr std::size_t kCfPidBlock = 64;

/// The contention-free measures of one pid's solo run (Section 2.2). A
/// mutex pid's session is its contention-free session, refined by its
/// clean entry and exit windows; a detector pid's session is its whole
/// solo run, and its entry/exit stay zero.
struct CfPid {
  ComplexityReport session;  ///< the contention-free session / solo run
  ComplexityReport entry;    ///< its clean entry window (mutex)
  ComplexityReport exit;     ///< its exit window (mutex)
  int atomicity = 0;         ///< widest register the run accessed
};
using MutexCfPid = CfPid;  ///< a mutex pid: all four fields measured

/// Internal: one contention-free mutex cell — the solo sessions of pids
/// [first, last) on ONE Sim and ONE streaming accumulator. The Sim is
/// built once and marked as its rewind base; before each later pid it is
/// rewound to it (Sim::rewind_to(0) resets just the pid that ran), so
/// every pid sees exactly the fresh-Sim solo run.
///
/// The accumulator is never reset or copied, and its values are still
/// those of a fresh one: a solo session touches no other process's record,
/// each pid runs once per block so its own record is fresh when it starts,
/// and a pid that completed its one contention-free session (checked, see
/// below) is back in Remainder, so the section table is all-Remainder
/// again for the next. Throws std::logic_error when a solo session
/// exhausts its step budget or does not complete exactly one
/// contention-free session.
[[nodiscard]] std::vector<CfPid> measure_mutex_cf_block(
    const MutexFactory& make, int n, AccessPolicy policy, Pid first,
    Pid last);

/// Internal: one contention-free detector cell — the solo runs of pids
/// [first, last), on one Sim and one accumulator exactly as
/// measure_mutex_cf_block (a detector process has no sections, and each
/// pid's whole-run total starts fresh). A run cut by its step budget is
/// reported truncated. Throws std::logic_error when a solo process does
/// not output 1 (a broken detector).
[[nodiscard]] std::vector<CfPid> measure_detector_cf_block(
    const DetectorFactory& make, int n, Pid first, Pid last);

}  // namespace detail

}  // namespace cfc

#endif  // CFC_ANALYSIS_STUDY_H
