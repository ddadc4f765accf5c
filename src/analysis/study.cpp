#include "analysis/study.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/adversary.h"
#include "core/algorithm_registry.h"
#include "core/json.h"
#include "core/streaming_measures.h"
#include "naming/checkers.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "sched/sched.h"

namespace cfc {

const char* name(StudyKind k) {
  switch (k) {
    case StudyKind::Mutex:
      return "mutex";
    case StudyKind::Naming:
      return "naming";
    case StudyKind::Detector:
      return "detector";
  }
  return "unknown";
}

// ---------------------------------------------------------------- StudySpec

StudySpec StudySpec::of(std::string subject) {
  StudySpec spec;
  spec.subject_name = std::move(subject);
  return spec;
}

StudySpec& StudySpec::kind(StudyKind k) {
  study_kind = k;
  return *this;
}

StudySpec& StudySpec::n(int nprocs) {
  procs = nprocs;
  return *this;
}

StudySpec& StudySpec::sessions(int s) {
  mutex_sessions = s;
  return *this;
}

StudySpec& StudySpec::policy(AccessPolicy p) {
  access = p;
  return *this;
}

StudySpec& StudySpec::sample_pids(int max_pids) {
  cf_pid_sample = max_pids;
  return *this;
}

StudySpec& StudySpec::contention_free() {
  want_cf = true;
  return *this;
}

StudySpec& StudySpec::worst_case() {
  want_wc = true;
  return *this;
}

StudySpec& StudySpec::worst_case(SearchStrategy s) {
  want_wc = true;
  search.strategy = s;
  if (s == SearchStrategy::Exhaustive) {
    // Certified searches default to the reduced tree: source-DPOR under
    // the measurement-aware dependence relation is value-preserving for
    // every objective the studies maximize (the POR differential suite
    // pins it to the unreduced search), and it reaches depths/process
    // counts the unreduced tree cannot. reduction() overrides.
    search.limits.reduction = ReductionPolicy::SourceDpor;
  }
  return *this;
}

StudySpec& StudySpec::worst_case(const WorstCaseSearchOptions& options) {
  want_wc = true;
  search = options;
  return *this;
}

StudySpec& StudySpec::reduction(ReductionPolicy policy) {
  search.limits.reduction = policy;
  return *this;
}

StudySpec& StudySpec::seeds(std::vector<std::uint64_t> s) {
  search.seeds = std::move(s);
  return *this;
}

StudySpec& StudySpec::crash(std::vector<std::uint64_t> after) {
  search.crash_after = std::move(after);
  return *this;
}

StudySpec& StudySpec::budget(std::uint64_t per_run) {
  search.budget_per_run = per_run;
  return *this;
}

StudySpec& StudySpec::trace(std::string path) {
  trace_path = std::move(path);
  return *this;
}

StudySpec& StudySpec::progress(std::string path, int interval_ms) {
  want_progress = true;
  progress_path = std::move(path);
  progress_interval_ms = interval_ms;
  return *this;
}

StudySpec& StudySpec::limits(const ExploreLimits& l) {
  // Replacing the budget struct must not silently revert the reduction
  // policy a prior worst_case(Exhaustive) defaulted (the builder stays
  // order-independent): a struct that names no policy keeps the current
  // one. An explicit choice — reduction() before/after, or a struct
  // carrying a policy — always wins; to force the unreduced tree, call
  // reduction(ReductionPolicy::Off).
  const ReductionPolicy keep = search.limits.reduction;
  search.limits = l;
  if (l.reduction == ReductionPolicy::Off) {
    search.limits.reduction = keep;
  }
  return *this;
}

StudySpec& StudySpec::depth(int max_depth) {
  search.limits.max_depth = max_depth;
  return *this;
}

StudySpec& StudySpec::factory(MutexFactory f) {
  adhoc_mutex = std::move(f);
  return *this;
}

StudySpec& StudySpec::factory(NamingFactory f) {
  adhoc_naming = std::move(f);
  return *this;
}

StudySpec& StudySpec::factory(DetectorFactory f) {
  adhoc_detector = std::move(f);
  return *this;
}

// ------------------------------------------------------- measurement tasks

namespace {

/// One unit of campaign work: a fixed grid of independent cells plus an
/// index-order reduction. Cells from every task in a campaign are
/// interleaved into one flat parallel_for, so there is no per-task (and
/// hence no per-spec) barrier; reductions run afterwards on the calling
/// thread in task order.
class MeasureTask {
 public:
  virtual ~MeasureTask() = default;

  [[nodiscard]] virtual std::size_t cell_count() const = 0;
  virtual void measure_cell(std::size_t i, ExperimentRunner& runner) = 0;
  virtual void reduce() = 0;
  /// Writes the task's reduced measurements into the study result.
  virtual void apply(StudyResult& out) const = 0;

  void add_ns(std::int64_t ns) { ns_ += ns; }
  [[nodiscard]] double wall_ms() const {
    return static_cast<double>(ns_.load()) * 1e-6;
  }

 private:
  std::atomic<std::int64_t> ns_{0};
};

/// Copies a worst-case search's statistics into the study result —
/// including the single definition of the `certified` invariant.
void fill_search_stats(StudyResult& out, const Explorer::Result& r,
                       const Explorer::Config& cfg) {
  out.wc_strategy = cfg.strategy;
  // Random runs no DFS and hence no reduction.
  out.wc_reduction = cfg.strategy == SearchStrategy::Random
                         ? ReductionPolicy::Off
                         : cfg.limits.reduction;
#define CFC_COPY_COUNTER(field, ...) out.field = r.stats.field;
  CFC_STUDY_REDUCTION_COUNTERS(CFC_COPY_COUNTER)
  CFC_STUDY_WC_COUNTERS(CFC_COPY_COUNTER)
#undef CFC_COPY_COUNTER
  out.schedules_tried = r.stats.runs_completed + r.stats.runs_truncated;
  out.truncated = out.truncated || r.stats.truncated;
  out.certified = cfg.strategy != SearchStrategy::Random &&
                  !r.stats.state_budget_hit;
}

/// Contention-free measurement (Section 2.2), for mutexes and detectors
/// alike: one solo run per measured pid; max over pids. Each cell is one
/// block of detail::kCfPidBlock consecutive pids on one rewound Sim, so a
/// solo run costs its own work rather than a fresh n-process setup. The
/// kind's block function (detail::measure_mutex_cf_block or
/// detail::measure_detector_cf_block) is fixed when the campaign is
/// planned (cf_block).
class CfTask final : public MeasureTask {
 public:
  using BlockFn = std::function<std::vector<detail::CfPid>(Pid, Pid)>;

  CfTask(BlockFn block, int pid_limit) : block_(std::move(block)) {
    cells_.resize(static_cast<std::size_t>(pid_limit));
  }

  [[nodiscard]] std::size_t cell_count() const override {
    return (cells_.size() + detail::kCfPidBlock - 1) / detail::kCfPidBlock;
  }

  void measure_cell(std::size_t block, ExperimentRunner&) override {
    const std::size_t first = block * detail::kCfPidBlock;
    const std::size_t last =
        std::min(first + detail::kCfPidBlock, cells_.size());
    const std::vector<detail::CfPid> pids =
        block_(static_cast<Pid>(first), static_cast<Pid>(last));
    std::copy(pids.begin(), pids.end(),
              cells_.begin() + static_cast<std::ptrdiff_t>(first));
  }

  void reduce() override {
    for (const detail::CfPid& cell : cells_) {  // index order
      session_ = session_.max_with(cell.session);
      entry_ = entry_.max_with(cell.entry);
      exit_ = exit_.max_with(cell.exit);
      atomicity_ = std::max(atomicity_, cell.atomicity);
    }
  }

  void apply(StudyResult& out) const override {
    out.has_cf = true;
    out.cf = session_;
    out.cf_entry = entry_;
    out.cf_exit = exit_;
    out.measured_atomicity = std::max(out.measured_atomicity, atomicity_);
  }

 private:
  BlockFn block_;
  std::vector<detail::CfPid> cells_;  ///< one per measured pid
  ComplexityReport session_;
  ComplexityReport entry_;
  ComplexityReport exit_;
  int atomicity_ = 0;
};

/// The solo runs of pids [first, last) on ONE Sim and ONE streaming
/// accumulator, shared by both kinds' blocks (see detail's block docs):
/// `setup` builds the subject, then every pid after the first starts from
/// Sim::rewind_to(0), and `read(sim, acc, pid, outcome)` checks and reads
/// one solo run.
template <typename Setup, typename Read>
std::vector<detail::CfPid> solo_block(int n, Pid first, Pid last,
                                      const Setup& setup, const Read& read) {
  Sim sim;
  sim.set_trace_recording(false);
  MeasureAccumulator acc(n);
  sim.add_sink(acc);
  const auto owner = setup(sim);
  sim.mark_rewind_base();
  std::vector<detail::CfPid> out;
  out.reserve(static_cast<std::size_t>(std::max(0, last - first)));
  for (Pid pid = first; pid < last; ++pid) {
    if (pid != first) {
      // Only the pid that just ran acted past the base, so the rewind
      // value-replays nothing and resets just that process. The
      // accumulator needs no reset: see the header.
      sim.rewind_to(0);
    }
    SoloScheduler solo(pid);
    out.push_back(read(sim, acc, pid, drive(sim, solo)));
  }
  return out;
}

}  // namespace

namespace detail {

std::vector<CfPid> measure_mutex_cf_block(const MutexFactory& make, int n,
                                          AccessPolicy policy, Pid first,
                                          Pid last) {
  return solo_block(
      n, first, last,
      [&](Sim& sim) {
        sim.set_access_policy(policy);
        return setup_mutex(sim, make, n, /*sessions=*/1);
      },
      [](const Sim&, const MeasureAccumulator& acc, Pid pid,
         RunOutcome outcome) {
        if (outcome == RunOutcome::BudgetExhausted) {
          throw std::logic_error(
              "solo mutex session did not terminate (weak deadlock freedom "
              "violated)");
        }
        if (acc.contention_free_session_count(pid) != 1) {
          throw std::logic_error(
              "expected exactly one contention-free session");
        }
        return CfPid{acc.contention_free_session_max(pid),
                     acc.clean_entry_max(pid), acc.exit_max(pid),
                     acc.total(pid).atomicity};
      });
}

std::vector<CfPid> measure_detector_cf_block(const DetectorFactory& make,
                                             int n, Pid first, Pid last) {
  return solo_block(
      n, first, last,
      [&](Sim& sim) { return setup_detection(sim, make, n); },
      [](const Sim& sim, const MeasureAccumulator& acc, Pid pid,
         RunOutcome outcome) {
        if (sim.output(pid) != 1) {
          throw std::logic_error(
              "solo detector process did not output 1 (broken detector)");
        }
        ComplexityReport run = acc.total(pid);
        run.truncated = run.truncated ||
                        outcome == RunOutcome::BudgetExhausted;
        return CfPid{run, {}, {}, run.atomicity};
      });
}

}  // namespace detail

namespace {

/// Mutex or detector worst-case search: one cell running the
/// schedule-space Explorer (which fans its own work items or seeds over the
/// same runner — the ExperimentRunner is nestable and
/// caller-participating). The kind's setup and objective are fixed in the
/// Explorer::Config when the campaign is planned (wc_search_config).
class WcTask final : public MeasureTask {
 public:
  WcTask(StudyKind kind, Explorer::Config cfg)
      : kind_(kind), cfg_(std::move(cfg)) {}

  [[nodiscard]] std::size_t cell_count() const override { return 1; }

  void measure_cell(std::size_t, ExperimentRunner& runner) override {
    result_ = Explorer(cfg_).run(&runner);
  }

  void reduce() override {}

  void apply(StudyResult& out) const override {
    out.has_wc = true;
    if (kind_ == StudyKind::Mutex) {
      if (result_.best.size() >= 2) {
        out.wc_entry = result_.best[0];
        out.wc_exit = result_.best[1];
      }
      out.wc = out.wc_entry.plus(out.wc_exit);
    } else if (!result_.best.empty()) {
      out.wc = result_.best[0];
    }
    fill_search_stats(out, result_, cfg_);
  }

 private:
  StudyKind kind_;
  Explorer::Config cfg_;
  Explorer::Result result_;
};

/// Naming measurement battery. Cell 0 is the sequential (contention-free)
/// schedule; with the worst-case battery enabled, cell 1 is round-robin,
/// cell 2 the Theorem 6 lockstep symmetry adversary, and cells 3.. the
/// seeded random schedules. The wc report is the max over all cells
/// (naming worst cases are found by this fixed adversary battery; the DFS
/// strategies do not apply). Every cell is measured by a streaming
/// MeasureAccumulator, with trace recording off (the lockstep adversary
/// reads its observations off the event stream).
class NamingTask final : public MeasureTask {
 public:
  NamingTask(NamingFactory make, int n, std::vector<std::uint64_t> seeds,
             bool battery, std::string label)
      : make_(std::move(make)),
        n_(n),
        seeds_(std::move(seeds)),
        battery_(battery),
        label_(std::move(label)) {
    cells_.resize(battery_ ? 3 + seeds_.size() : 1);
  }

  [[nodiscard]] std::size_t cell_count() const override {
    return cells_.size();
  }

  void measure_cell(std::size_t i, ExperimentRunner&) override {
    Sim sim;
    sim.set_trace_recording(false);
    MeasureAccumulator acc(n_);
    sim.add_sink(acc);
    auto alg = setup_naming(sim, make_, n_);
    bool cut = false;  // budget exhausted: surfaced as truncated below
    switch (i) {
      case 0: {
        if (!run_sequentially(sim)) {
          throw std::logic_error("sequential naming run did not finish: " +
                                 label_);
        }
        break;
      }
      case 1: {
        RoundRobinScheduler rr;
        if (drive(sim, rr) != RunOutcome::AllDone) {
          throw std::logic_error("round-robin naming run did not finish: " +
                                 label_);
        }
        break;
      }
      case 2: {
        // The lockstep symmetry adversary, finished off fairly so
        // stragglers complete and count.
        std::vector<Pid> group;
        group.reserve(static_cast<std::size_t>(n_));
        for (Pid p = 0; p < n_; ++p) {
          group.push_back(p);
        }
        const LockstepResult res = lockstep_symmetry_adversary(sim, group);
        if (res.identical_group_terminated) {
          throw std::logic_error("identical processes terminated together: " +
                                 label_);
        }
        RoundRobinScheduler rr;
        cut = drive(sim, rr) != RunOutcome::AllDone;
        break;
      }
      default: {
        RandomScheduler rnd(seeds_[i - 3]);
        if (drive(sim, rnd) != RunOutcome::AllDone) {
          throw std::logic_error("random naming run did not finish: " +
                                 label_);
        }
        break;
      }
    }
    if (!check_naming_names(sim, alg->name_space()).ok()) {
      throw std::logic_error("naming run failed validation: " + label_);
    }
    ComplexityReport best;
    for (Pid p = 0; p < n_; ++p) {
      best = best.max_with(acc.total(p));
    }
    best.truncated = best.truncated || cut;
    cells_[i] = best;
  }

  void reduce() override {
    cf_ = cells_[0];
    for (const ComplexityReport& cell : cells_) {
      wc_ = wc_.max_with(cell);
    }
  }

  void apply(StudyResult& out) const override {
    out.has_cf = true;
    out.cf = cf_;
    out.measured_atomicity = std::max(out.measured_atomicity, cf_.atomicity);
    if (battery_) {
      out.has_wc = true;
      out.wc_strategy = SearchStrategy::Random;
      out.wc = wc_;
      out.schedules_tried += cells_.size();
      out.truncated = out.truncated || wc_.truncated;
    }
  }

 private:
  NamingFactory make_;
  int n_;
  std::vector<std::uint64_t> seeds_;
  bool battery_;
  std::string label_;
  std::vector<ComplexityReport> cells_;
  ComplexityReport cf_;
  ComplexityReport wc_;
};

// ------------------------------------------------------ subject resolution

struct ResolvedSubject {
  std::string name;
  MutexFactory mutex;
  NamingFactory naming;
  DetectorFactory detector;
  bool from_registry = false;  ///< dedup-eligible across campaign specs
};

/// Resolves one kind's factory: the spec's ad-hoc `adhoc` when set, else
/// the registry entry `lookup` finds under the subject name. Validates
/// capacity on the calling thread, so misconfiguration surfaces as the
/// documented exception rather than through the pool; the probe allocates
/// the algorithm's registers once but spawns no processes. Fills in the
/// subject's name and dedup eligibility.
template <typename Factory, typename Entry>
Factory resolve_factory(const StudySpec& spec, const Factory& adhoc,
                        const Entry& (AlgorithmRegistry::*lookup)(
                            std::string_view) const,
                        ResolvedSubject& r) {
  r.from_registry = !adhoc;
  const Factory make =
      adhoc ? adhoc
            : (AlgorithmRegistry::instance().*lookup)(spec.subject_name)
                  .factory;
  Sim probe;
  const auto alg = make(probe.memory(), spec.procs);
  if (alg->capacity() < spec.procs) {
    throw std::invalid_argument(std::string(name(spec.study_kind)) +
                                " capacity below process count");
  }
  r.name =
      spec.subject_name.empty() ? alg->algorithm_name() : spec.subject_name;
  return make;
}

/// Resolves the spec's subject (ad-hoc factory or registry lookup).
ResolvedSubject resolve(const StudySpec& spec) {
  ResolvedSubject r;
  switch (spec.study_kind) {
    case StudyKind::Mutex:
      r.mutex =
          resolve_factory(spec, spec.adhoc_mutex, &AlgorithmRegistry::mutex, r);
      break;
    case StudyKind::Naming:
      r.naming = resolve_factory(spec, spec.adhoc_naming,
                                 &AlgorithmRegistry::naming, r);
      break;
    case StudyKind::Detector:
      r.detector = resolve_factory(spec, spec.adhoc_detector,
                                   &AlgorithmRegistry::detector, r);
      break;
  }
  return r;
}

/// The contention-free block function of a mutex or detector spec: the
/// kind's setup and per-pid read (detail::measure_*_cf_block).
CfTask::BlockFn cf_block(const StudySpec& spec,
                         const ResolvedSubject& subject) {
  const int n = spec.procs;
  if (spec.study_kind == StudyKind::Mutex) {
    return [make = subject.mutex, n, policy = spec.access](Pid first,
                                                           Pid last) {
      return detail::measure_mutex_cf_block(make, n, policy, first, last);
    };
  }
  return [make = subject.detector, n](Pid first, Pid last) {
    return detail::measure_detector_cf_block(make, n, first, last);
  };
}

/// The worst-case search of a mutex or detector spec: the spec's strategy
/// and budgets, the kind's setup followed by the crash injection, and the
/// kind's objective.
Explorer::Config wc_search_config(const StudySpec& spec,
                                  const ResolvedSubject& subject) {
  const WorstCaseSearchOptions& o = spec.search;
  const int n = spec.procs;
  Explorer::Config cfg;
  cfg.nprocs = n;
  cfg.strategy = o.strategy;
  cfg.limits = o.limits;
  cfg.seeds = o.seeds;
  cfg.random_budget = o.budget_per_run;
  Explorer::SetupFn setup;
  if (spec.study_kind == StudyKind::Mutex) {
    const MutexFactory make = subject.mutex;
    const int sessions = spec.mutex_sessions;
    setup = [make, n, sessions](Sim& sim) -> std::shared_ptr<void> {
      return setup_mutex(sim, make, n, sessions);
    };
    // Objective: the clean-entry and exit window maxima over all processes.
    cfg.objective.fields = {MeasureField::CleanEntry, MeasureField::Exit};
  } else {
    const DetectorFactory make = subject.detector;
    setup = [make, n](Sim& sim) -> std::shared_ptr<void> {
      return setup_detection(sim, make, n);
    };
    // Objective: the whole-run totals' max over all processes.
    cfg.objective.fields = {MeasureField::Total};
  }
  cfg.setup = [setup = std::move(setup),
               crash = o.crash_after](Sim& sim) -> std::shared_ptr<void> {
    std::shared_ptr<void> owner = setup(sim);
    for (std::size_t p = 0; p < crash.size(); ++p) {
      sim.crash_after(static_cast<Pid>(p), crash[p]);
    }
    return owner;
  };
  return cfg;
}

std::string seeds_key(const std::vector<std::uint64_t>& seeds) {
  std::string out;
  for (const std::uint64_t s : seeds) {
    out += std::to_string(s);
    out += ',';
  }
  return out;
}

std::string search_key(const WorstCaseSearchOptions& o) {
  return std::string(name(o.strategy)) + "|seeds=" + seeds_key(o.seeds) +
         "|budget=" + std::to_string(o.budget_per_run) +
         "|depth=" + std::to_string(o.limits.max_depth) +
         "|preempt=" + std::to_string(o.limits.max_preemptions) +
         "|states=" + std::to_string(o.limits.max_states) +
         "|prune=" + std::to_string(o.limits.prune_visited ? 1 : 0) +
         "|reduction=" + name(o.limits.reduction) +
         "|crash=" + seeds_key(o.crash_after);
}

int effective_pid_limit(const StudySpec& spec) {
  return (spec.cf_pid_sample > 0 && spec.cf_pid_sample < spec.procs)
             ? spec.cf_pid_sample
             : spec.procs;
}

}  // namespace

// ----------------------------------------------------------------- Campaign

Campaign& Campaign::add(StudySpec spec) {
  specs_.push_back(std::move(spec));
  return *this;
}

Campaign& Campaign::add(std::vector<StudySpec> specs) {
  for (StudySpec& spec : specs) {
    specs_.push_back(std::move(spec));
  }
  return *this;
}

std::vector<StudyResult> Campaign::run(ExperimentRunner* runner,
                                       CampaignStats* stats) const {
  struct Binding {
    MeasureTask* cf = nullptr;
    MeasureTask* wc = nullptr;
  };

  // Observability (src/obs/): honor the first spec asking for a trace /
  // progress heartbeat, started before planning so the plan phase is
  // covered. An already-running outer tracer (a bench's --trace-out) wins.
  // Observational only — neither changes any study value. The guard stops
  // (and writes) an owned tracer on every exit path; it is declared before
  // the reporter so the reporter's final heartbeat lands inside the trace.
  struct TracerGuard {
    bool own = false;
    ~TracerGuard() {
      if (own) {
        obs::Tracer::stop();
      }
    }
  } tracer_guard;
  for (const StudySpec& spec : specs_) {
    if (!spec.trace_path.empty()) {
      if (obs::Tracer::active() == nullptr) {
        obs::Tracer::start(spec.trace_path);
        tracer_guard.own = true;
      }
      break;
    }
  }
  std::unique_ptr<obs::ProgressReporter> progress;
  for (const StudySpec& spec : specs_) {
    if (spec.want_progress) {
      progress = std::make_unique<obs::ProgressReporter>(
          obs::ProgressReporter::Options{spec.progress_path,
                                         spec.progress_interval_ms});
      break;
    }
  }

  const auto plan_t0 = std::chrono::steady_clock::now();
  std::optional<obs::TraceSpan> plan_span;
  plan_span.emplace("campaign.plan");
  std::vector<std::unique_ptr<MeasureTask>> tasks;
  std::map<std::string, MeasureTask*> interned;
  std::vector<Binding> bindings(specs_.size());
  std::vector<std::string> names(specs_.size());
  std::size_t deduplicated = 0;

  // Dedup: an empty key (ad-hoc subject) always plans a fresh task; a
  // registry key covering the full measurement configuration (subject,
  // kind, n, policy/sessions, strategy, seeds, budgets) shares the task.
  const auto intern = [&](const std::string& key,
                          const std::function<std::unique_ptr<MeasureTask>()>&
                              build) -> MeasureTask* {
    if (!key.empty()) {
      const auto it = interned.find(key);
      if (it != interned.end()) {
        deduplicated += 1;
        return it->second;
      }
    }
    tasks.push_back(build());
    MeasureTask* task = tasks.back().get();
    if (!key.empty()) {
      interned.emplace(key, task);
    }
    return task;
  };

  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const StudySpec& spec = specs_[i];
    const ResolvedSubject subject = resolve(spec);
    names[i] = subject.name;
    const std::string base =
        subject.from_registry
            ? std::string(name(spec.study_kind)) + '|' + subject.name +
                  "|n=" + std::to_string(spec.procs)
            : std::string();
    const auto keyed = [&base](const std::string& suffix) {
      return base.empty() ? std::string() : base + '|' + suffix;
    };

    if (spec.study_kind == StudyKind::Naming) {
      // One battery task covers both measures; a cf-only spec runs just
      // the sequential cell.
      MeasureTask* task = intern(
          keyed(std::string("battery|wc=") + (spec.want_wc ? '1' : '0') +
                "|seeds=" + seeds_key(spec.search.seeds)),
          [&] {
            return std::make_unique<NamingTask>(
                subject.naming, spec.procs, spec.search.seeds, spec.want_wc,
                subject.name);
          });
      bindings[i].cf = task;
      bindings[i].wc = spec.want_wc ? task : nullptr;
      continue;
    }
    // Mutex or detector: the kind's cf block function and search config
    // are picked here; the tasks are the same.
    const bool mutex = spec.study_kind == StudyKind::Mutex;
    if (spec.want_cf) {
      // Detectors measure every pid (pid sampling is a mutex option).
      const int pid_limit = mutex ? effective_pid_limit(spec) : spec.procs;
      bindings[i].cf = intern(
          keyed(mutex ? "cf|policy=" +
                            std::to_string(static_cast<int>(spec.access)) +
                            "|pids=" + std::to_string(pid_limit)
                      : std::string("cf")),
          [&] {
            return std::make_unique<CfTask>(cf_block(spec, subject),
                                            pid_limit);
          });
    }
    if (spec.want_wc) {
      bindings[i].wc = intern(
          keyed((mutex ? "wc|sessions=" +
                             std::to_string(spec.mutex_sessions) + '|'
                       : std::string("wc|")) +
                search_key(spec.search)),
          [&] {
            return std::make_unique<WcTask>(spec.study_kind,
                                            wc_search_config(spec, subject));
          });
    }
  }

  // Interleave: round-robin one cell per task, so no task (and no spec)
  // forms a barrier in the flat grid.
  std::vector<std::pair<MeasureTask*, std::size_t>> flat;
  std::size_t max_cells = 0;
  for (const auto& task : tasks) {
    max_cells = std::max(max_cells, task->cell_count());
  }
  for (std::size_t round = 0; round < max_cells; ++round) {
    for (const auto& task : tasks) {
      if (round < task->cell_count()) {
        flat.emplace_back(task.get(), round);
      }
    }
  }
  plan_span.reset();
  const double plan_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - plan_t0)
          .count();

  obs::MetricRegistry& metrics = obs::MetricRegistry::global();
  if (metrics.enabled()) {
    metrics.set(obs::Metric::cells_total, flat.size());
  }
  std::vector<double> cell_ms(flat.size(), 0.0);
  ExperimentRunner& engine = runner_or_shared(runner);
  engine.parallel_for(flat.size(), [&](std::size_t i) {
    const obs::TraceSpan cell_span("campaign.cell");
    const auto t0 = std::chrono::steady_clock::now();
    flat[i].first->measure_cell(flat[i].second, engine);
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    flat[i].first->add_ns(ns);
    cell_ms[i] = static_cast<double>(ns) * 1e-6;
    if (metrics.enabled()) {
      metrics.add(obs::Metric::cells_done, 1);
    }
  });

  const auto merge_t0 = std::chrono::steady_clock::now();
  std::optional<obs::TraceSpan> merge_span;
  merge_span.emplace("campaign.merge");
  for (const auto& task : tasks) {
    task->reduce();
  }

  std::vector<StudyResult> out(specs_.size());
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const StudySpec& spec = specs_[i];
    StudyResult& res = out[i];
    res.subject = names[i];
    res.kind = spec.study_kind;
    res.n = spec.procs;
    res.sessions = spec.mutex_sessions;
    if (bindings[i].cf != nullptr) {
      bindings[i].cf->apply(res);
      res.wall_ms += bindings[i].cf->wall_ms();
    }
    if (bindings[i].wc != nullptr && bindings[i].wc != bindings[i].cf) {
      bindings[i].wc->apply(res);
      res.wall_ms += bindings[i].wc->wall_ms();
    }
    res.execute_ms = res.wall_ms;
    // A naming battery measures cf as a side effect; mask it when the spec
    // did not ask for it so the result mirrors the request.
    if (!spec.want_cf) {
      res.has_cf = false;
      res.cf = ComplexityReport{};
      res.cf_entry = ComplexityReport{};
      res.cf_exit = ComplexityReport{};
      res.measured_atomicity = 0;
    }
  }

  merge_span.reset();
  const double merge_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - merge_t0)
          .count();
  for (StudyResult& res : out) {
    res.plan_ms = plan_ms;
    res.merge_ms = merge_ms;
  }

  if (stats != nullptr) {
    stats->specs = specs_.size();
    stats->tasks_planned = tasks.size();
    stats->tasks_deduplicated = deduplicated;
    stats->cells = flat.size();
    stats->cell_wall_ms = std::move(cell_ms);
    stats->plan_ms = plan_ms;
    stats->merge_ms = merge_ms;
  }
  return out;
}

StudyResult run_study(const StudySpec& spec, ExperimentRunner* runner) {
  Campaign campaign;
  campaign.add(spec);
  return campaign.run(runner)[0];
}

// --------------------------------------------------------------- to_json

namespace {

void append_report(std::string& out, const ComplexityReport& r) {
  out += "{\"steps\": " + std::to_string(r.steps) +
         ", \"registers\": " + std::to_string(r.registers) +
         ", \"read_steps\": " + std::to_string(r.read_steps) +
         ", \"write_steps\": " + std::to_string(r.write_steps) +
         ", \"read_registers\": " + std::to_string(r.read_registers) +
         ", \"write_registers\": " + std::to_string(r.write_registers) +
         ", \"atomicity\": " + std::to_string(r.atomicity) +
         ", \"truncated\": " + (r.truncated ? "true" : "false") + "}";
}

}  // namespace

std::string to_json(const StudyResult& r, const StudyJsonOptions& opts) {
  std::string out = "{\n  \"schema\": \"cfc.study.v1\",\n  \"subject\": \"";
  json::append_escaped(out, r.subject);
  out += "\",\n  \"kind\": \"";
  out += name(r.kind);
  out += "\",\n  \"n\": " + std::to_string(r.n) +
         ",\n  \"sessions\": " + std::to_string(r.sessions) + ",\n";
  if (r.has_cf) {
    out += "  \"cf\": {\n    \"session\": ";
    append_report(out, r.cf);
    out += ",\n    \"entry\": ";
    append_report(out, r.cf_entry);
    out += ",\n    \"exit\": ";
    append_report(out, r.cf_exit);
    out += ",\n    \"atomicity\": " + std::to_string(r.measured_atomicity) +
           "\n  },\n";
  } else {
    out += "  \"cf\": null,\n";
  }
  if (r.has_wc) {
    out += "  \"wc\": {\n    \"strategy\": \"";
    out += name(r.wc_strategy);
    out += "\",\n    \"reduction\": {\"policy\": \"";
    out += name(r.wc_reduction);
    out += "\"";
    // The counter lists (and their emission order) come from study.h, so
    // serializer/parser/engine can never disagree.
#define CFC_EMIT_COUNTER(field, ...) \
  out += ", \"" #field "\": " + std::to_string(r.field);
    CFC_STUDY_REDUCTION_COUNTERS(CFC_EMIT_COUNTER)
#undef CFC_EMIT_COUNTER
    out += "}";
    out += ",\n    \"total\": ";
    append_report(out, r.wc);
    out += ",\n    \"entry\": ";
    append_report(out, r.wc_entry);
    out += ",\n    \"exit\": ";
    append_report(out, r.wc_exit);
    out += ",\n    \"schedules_tried\": " + std::to_string(r.schedules_tried);
#define CFC_EMIT_WC_COUNTER(field) \
  out += ",\n    \"" #field "\": " + std::to_string(r.field);
    CFC_STUDY_WC_COUNTERS(CFC_EMIT_WC_COUNTER)
#undef CFC_EMIT_WC_COUNTER
    out += std::string(",\n    \"truncated\": ") +
           (r.truncated ? "true" : "false") +
           ",\n    \"certified\": " + (r.certified ? "true" : "false") +
           "\n  }";
  } else {
    out += "  \"wc\": null";
  }
  if (opts.include_timing) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  ",\n  \"timing\": {\"plan_ms\": %.3f, \"execute_ms\": "
                  "%.3f, \"merge_ms\": %.3f},\n  \"wall_ms\": %.3f",
                  r.plan_ms, r.execute_ms, r.merge_ms, r.wall_ms);
    out += buf;
  }
  out += "\n}";
  return out;
}

std::string to_json(const std::vector<StudyResult>& results,
                    const StudyJsonOptions& opts) {
  std::string out = "[\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    out += to_json(results[i], opts);
    out += (i + 1 < results.size()) ? ",\n" : "\n";
  }
  out += "]";
  return out;
}

// ---------------------------------------------------------- study_from_json

namespace {

ComplexityReport report_from(const json::Node& obj) {
  if (!obj.is_object()) {
    throw std::invalid_argument("study JSON: expected a report object");
  }
  ComplexityReport r;
  r.steps = json::to_int(json::member(obj, "steps"));
  r.registers = json::to_int(json::member(obj, "registers"));
  r.read_steps = json::to_int(json::member(obj, "read_steps"));
  r.write_steps = json::to_int(json::member(obj, "write_steps"));
  r.read_registers = json::to_int(json::member(obj, "read_registers"));
  r.write_registers = json::to_int(json::member(obj, "write_registers"));
  r.atomicity = json::to_int(json::member(obj, "atomicity"));
  r.truncated = json::to_bool(json::member(obj, "truncated"));
  return r;
}

StudyKind kind_from(const std::string& s) {
  if (s == "mutex") {
    return StudyKind::Mutex;
  }
  if (s == "naming") {
    return StudyKind::Naming;
  }
  if (s == "detector") {
    return StudyKind::Detector;
  }
  throw std::invalid_argument("study JSON: unknown kind '" + s + "'");
}

SearchStrategy strategy_from(const std::string& s) {
  if (s == "exhaustive") {
    return SearchStrategy::Exhaustive;
  }
  if (s == "bounded") {
    return SearchStrategy::Bounded;
  }
  if (s == "random") {
    return SearchStrategy::Random;
  }
  throw std::invalid_argument("study JSON: unknown strategy '" + s + "'");
}

ReductionPolicy reduction_from(const std::string& s) {
  const std::optional<ReductionPolicy> policy = reduction_policy_from(s);
  if (!policy.has_value()) {
    throw std::invalid_argument("study JSON: unknown reduction policy '" +
                                s + "'");
  }
  return *policy;
}

}  // namespace

StudyResult study_from_json(const std::string& payload) {
  const json::Node root = json::parse(payload);
  if (!root.is_object()) {
    throw std::invalid_argument("study JSON: expected an object");
  }
  if (json::to_string_field(json::member(root, "schema")) !=
      "cfc.study.v1") {
    throw std::invalid_argument("study JSON: unsupported schema '" +
                                json::member(root, "schema").text + "'");
  }
  StudyResult r;
  r.subject = json::to_string_field(json::member(root, "subject"));
  r.kind = kind_from(json::to_string_field(json::member(root, "kind")));
  r.n = json::to_int(json::member(root, "n"));
  r.sessions = json::to_int(json::member(root, "sessions"));

  const json::Node& cf = json::member(root, "cf");
  if (cf.is_object()) {
    r.has_cf = true;
    r.cf = report_from(json::member(cf, "session"));
    r.cf_entry = report_from(json::member(cf, "entry"));
    r.cf_exit = report_from(json::member(cf, "exit"));
    r.measured_atomicity = json::to_int(json::member(cf, "atomicity"));
  }

  const json::Node& wc = json::member(root, "wc");
  if (wc.is_object()) {
    r.has_wc = true;
    r.wc_strategy =
        strategy_from(json::to_string_field(json::member(wc, "strategy")));
    // "reduction" is optional so pre-POR cfc.study.v1 payloads still
    // parse (they carry policy off / zero counters implicitly).
    if (const json::Node* red = wc.find("reduction")) {
      if (!red->is_object()) {
        throw std::invalid_argument("study JSON: expected a reduction "
                                    "object");
      }
      r.wc_reduction =
          reduction_from(json::to_string_field(json::member(*red, "policy")));
      // The counters come from the list in study.h. Required keys
      // date back to the first POR payloads; the rest were added later
      // and stay optional so older payloads keep parsing as zero.
#define CFC_PARSE_COUNTER(field, required)                  \
  if (required) {                                           \
    r.field = json::to_u64(json::member(*red, #field));     \
  } else if (const json::Node* node = red->find(#field)) {  \
    r.field = json::to_u64(*node);                          \
  }
      CFC_STUDY_REDUCTION_COUNTERS(CFC_PARSE_COUNTER)
#undef CFC_PARSE_COUNTER
      // Members this reader does not know are ignored, so older payloads
      // that still carry a retired policy field or counter parse
      // unchanged.
    }
    r.wc = report_from(json::member(wc, "total"));
    r.wc_entry = report_from(json::member(wc, "entry"));
    r.wc_exit = report_from(json::member(wc, "exit"));
    r.schedules_tried = json::to_u64(json::member(wc, "schedules_tried"));
#define CFC_PARSE_WC_COUNTER(field) \
  r.field = json::to_u64(json::member(wc, #field));
    CFC_STUDY_WC_COUNTERS(CFC_PARSE_WC_COUNTER)
#undef CFC_PARSE_WC_COUNTER
    r.truncated = json::to_bool(json::member(wc, "truncated"));
    r.certified = json::to_bool(json::member(wc, "certified"));
    // Members this reader does not know are ignored here too, so payloads
    // that still carry the retired "frontier_clamped" flag parse unchanged.
  }

  // Optional (added with the phase-timing breakdown); members optional
  // too, mirroring the reduction-object pattern.
  if (const json::Node* timing = root.find("timing")) {
    if (!timing->is_object()) {
      throw std::invalid_argument("study JSON: expected a timing object");
    }
    if (const json::Node* v = timing->find("plan_ms")) {
      r.plan_ms = json::to_double(*v);
    }
    if (const json::Node* v = timing->find("execute_ms")) {
      r.execute_ms = json::to_double(*v);
    }
    if (const json::Node* v = timing->find("merge_ms")) {
      r.merge_ms = json::to_double(*v);
    }
  }
  if (const json::Node* wall = root.find("wall_ms")) {
    r.wall_ms = json::to_double(*wall);
  }
  return r;
}

}  // namespace cfc
