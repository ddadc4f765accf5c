#ifndef CFC_ANALYSIS_EXPERIMENT_H
#define CFC_ANALYSIS_EXPERIMENT_H

#include <cstdint>
#include <vector>

#include "analysis/experiment_runner.h"
#include "analysis/explorer.h"
#include "analysis/study.h"
#include "core/contention_detection.h"
#include "core/measures.h"
#include "mutex/mutex_algorithm.h"

namespace cfc {

/// Legacy per-problem measurement entry points, kept as thin forwarding
/// adapters over the unified Study/Campaign API (analysis/study.h) — each
/// builds a StudySpec, runs it, and repackages the StudyResult into the
/// historical per-problem structs. New code should use StudySpec/Campaign
/// directly; these remain for source compatibility and as the reference
/// shape of the paper's three measurements. The determinism contract
/// (bit-identical reports for every thread count; `runner = nullptr` uses
/// the shared hardware-sized pool) is inherited from the study engine.
/// (WorstCaseSearchOptions also lives in analysis/study.h now.)

/// Contention-free complexity of a mutual exclusion algorithm, measured per
/// the paper's Section 2.2 definition: for every process, run it alone
/// through one entry/exit session (all other processes stay in their
/// remainder regions) and take the maximum over processes.
struct MutexCfResult {
  ComplexityReport session;  ///< entry + exit (the paper's c-f complexity)
  ComplexityReport entry;    ///< entry code only
  ComplexityReport exit;     ///< exit code only
  int measured_atomicity = 0;
};

/// `max_pids` bounds how many processes get their own solo run (0 = all n).
/// Each block of up to 64 measured pids shares one n-process simulation,
/// rewound to its post-setup state between pids. Tree algorithms have
/// uniform per-process cost, so sampling loses nothing there; pass 0 when
/// exactness over every pid matters.
[[nodiscard]] MutexCfResult measure_mutex_contention_free(
    const MutexFactory& make, int n,
    AccessPolicy policy = AccessPolicy::Unrestricted, int max_pids = 0,
    ExperimentRunner* runner = nullptr);

/// Worst-case entry estimate: maximum step/register complexity over the
/// paper's *clean* entry windows (no process in CS or exit anywhere in the
/// window). Under the Random strategy this is a lower bound on the true
/// worst case; under Exhaustive it is *certified* over all schedules of at
/// most limits.max_depth picks (`certified` below). For waiting algorithms
/// the unbounded worst case [AT92] grows with any depth budget.
struct MutexWcSearchResult {
  ComplexityReport entry;  ///< max over clean entry windows found
  ComplexityReport exit;   ///< max over exit windows found
  std::uint64_t schedules_tried = 0;  ///< runs (Random) / leaves (DFS)
  std::uint64_t states_visited = 0;
  /// Mutual-exclusion violations found (DFS strategies; violating
  /// schedules are excluded from the maxima). Nonzero means the algorithm
  /// is unsafe — the complexity certification is then over the safe
  /// schedules only.
  std::uint64_t violations = 0;
  /// Some run was cut off (budget/depth/preemption bound): the values may
  /// under-report anything beyond the explored space.
  bool truncated = false;
  /// Exhaustive/Bounded only: the whole bounded schedule space was covered
  /// (no max_states cut) — the values are the exact maxima over it.
  bool certified = false;
};

/// (The redundant seed-list overload — Random strategy over bare seeds —
/// was deprecated in PR 3 and removed per the ROADMAP deprecation plan:
/// set strategy/seeds/budget on WorstCaseSearchOptions, or use
/// StudySpec::worst_case.)
[[nodiscard]] MutexWcSearchResult search_mutex_worst_case(
    const MutexFactory& make, int n, int sessions,
    const WorstCaseSearchOptions& options, ExperimentRunner* runner = nullptr);

/// Contention-free complexity of a contention detector: solo run per
/// process, maximum over processes. Also verifies the solo process outputs
/// 1 (throws std::logic_error otherwise — a broken detector).
[[nodiscard]] ComplexityReport measure_detector_contention_free(
    const DetectorFactory& make, int n, ExperimentRunner* runner = nullptr);

/// Worst-case whole-run complexity of a detector (max over processes and
/// runs). Random samples; Exhaustive certifies over the bounded space —
/// detectors terminate in a bounded number of steps, so a sufficient
/// max_depth certifies the true worst case.
struct DetectorWcSearchResult {
  ComplexityReport best;
  std::uint64_t schedules_tried = 0;
  std::uint64_t states_visited = 0;
  std::uint64_t violations = 0;
  bool truncated = false;
  bool certified = false;
};

/// The search `options` selects; the Random strategy runs one schedule per
/// seed.
[[nodiscard]] DetectorWcSearchResult search_detector_worst_case(
    const DetectorFactory& make, int n, const WorstCaseSearchOptions& options,
    ExperimentRunner* runner = nullptr);

}  // namespace cfc

#endif  // CFC_ANALYSIS_EXPERIMENT_H
