#include "sa/static_summary.h"

#include <algorithm>

#include "sched/event_sink.h"
#include "sched/sim.h"

namespace cfc {

namespace {

/// Unit budget of one solo dry-run. Solo runs of the registry models
/// terminate in well under a hundred units; the budget only bounds a
/// broken (non-terminating) model, which the linter then reports.
constexpr std::uint64_t kSoloUnitBudget = 4096;

/// Unit budget of one prefix-perturbed run: the perturbed process may spin
/// forever against the frozen peer, and a spin loop revisits its program
/// points within a few iterations — a short budget collects them all.
constexpr std::uint64_t kPerturbedUnitBudget = 1024;

/// Longest frozen prefix of the peer's solo schedule the pairwise battery
/// perturbs against (solo schedules are short; this is a defensive cap).
constexpr std::uint64_t kMaxPrefixLen = 256;

/// The instrumented recording sink: remembers the most recent counted
/// access so the collector can pair Sim::last_step_summary() (which
/// register the unit accessed) with the access's written-bit mask and
/// field window.
class FootprintRecorder final : public EventSink {
 public:
  void on_event(const TraceEvent& ev) override {
    if (ev.kind == TraceEvent::Kind::Access) {
      last_ = ev.access;
    }
  }

  [[nodiscard]] const Access& last_access() const { return last_; }

 private:
  Access last_;
};

/// One collection context: a fresh Sim wired to the recording sink.
struct CollectSim {
  Sim sim;
  FootprintRecorder recorder;
  std::shared_ptr<void> alg;

  explicit CollectSim(const StaticModel::SetupFn& setup) {
    sim.set_trace_recording(false);
    sim.add_sink(recorder);
    alg = setup(sim);
  }
};

void note_window(RegisterFacts& f, const Access& a) {
  if (a.field_width <= 0) {
    return;
  }
  f.field_written = true;
  const std::pair<int, int> window{a.field_shift, a.field_width};
  if (std::find(f.field_windows.begin(), f.field_windows.end(), window) ==
      f.field_windows.end()) {
    f.field_windows.push_back(window);
  }
}

}  // namespace

bool StaticModel::may_conflict(RegId reg, Pid a, Pid b) const {
  if (reg < 0 || reg >= register_count() || a < 0 || b < 0 || a >= 32 ||
      b >= 32) {
    return true;
  }
  const RegisterFacts& f = facts(reg);
  const std::uint32_t ma = std::uint32_t{1} << static_cast<unsigned>(a);
  const std::uint32_t mb = std::uint32_t{1} << static_cast<unsigned>(b);
  const bool a_touches = ((f.reader_pids | f.writer_pids) & ma) != 0;
  const bool b_touches = ((f.reader_pids | f.writer_pids) & mb) != 0;
  const bool a_writes = (f.writer_pids & ma) != 0;
  const bool b_writes = (f.writer_pids & mb) != 0;
  return a_touches && b_touches && (a_writes || b_writes);
}

StaticModel StaticModel::analyze(const SetupFn& setup, int nprocs) {
  StaticModel model;
  model.nprocs_ = nprocs;
  model.solo_.resize(static_cast<std::size_t>(nprocs));

  // Size the fact table from a probe instantiation (the register layout is
  // part of the configuration, identical across every fresh sim).
  {
    CollectSim probe(setup);
    model.facts_.resize(static_cast<std::size_t>(probe.sim.memory().size()));
    for (RegisterFacts& f : model.facts_) {
      f.written_fields_by_pid.assign(static_cast<std::size_t>(nprocs), 0);
    }
  }

  // Records the unit the collector just stepped on pid: the access facts
  // from the sink, filed under the register the step summary names.
  const auto collect_unit = [&model](CollectSim& cs, Pid pid) {
    model.units_collected_ += 1;
    const StepSummary& s = cs.sim.last_step_summary();
    if (!s.accessed) {
      return;
    }
    const Access& a = cs.recorder.last_access();
    RegisterFacts& f = model.facts_[static_cast<std::size_t>(s.reg)];
    f.observed = true;
    const std::uint32_t bit = std::uint32_t{1} << static_cast<unsigned>(pid);
    if (a.is_write()) {
      f.writer_pids |= bit;
      f.written_fields_by_pid[static_cast<std::size_t>(pid)] |=
          a.written_mask();
      note_window(f, a);
    }
    if (!a.is_write() || a.is_read()) {
      f.reader_pids |= bit;
    }
  };

  // Steps pid until completion/crash or the unit budget runs out,
  // collecting every unit; false on budget exhaustion. A thrown
  // mutual-exclusion violation (possible only in perturbed runs) stops
  // the run and keeps the facts gathered before it.
  const auto run_bounded = [&](CollectSim& cs, Pid pid, std::uint64_t budget,
                               SoloOutcome* outcome) -> bool {
    for (std::uint64_t i = 0; i < budget; ++i) {
      if (cs.sim.status(pid) != ProcStatus::NotStarted &&
          cs.sim.status(pid) != ProcStatus::Runnable) {
        return true;
      }
      try {
        (void)cs.sim.step(pid);
      } catch (const MutualExclusionViolation&) {
        return true;
      }
      collect_unit(cs, pid);
      if (outcome != nullptr) {
        outcome->units += 1;
        const Section sec = cs.sim.section(pid);
        outcome->entered_entry =
            outcome->entered_entry || sec == Section::Entry;
        outcome->entered_exit = outcome->entered_exit || sec == Section::Exit;
        const StepSummary& s = cs.sim.last_step_summary();
        if (s.accessed) {
          outcome->max_width_accessed =
              std::max(outcome->max_width_accessed,
                       cs.sim.memory().width(s.reg));
        }
      }
    }
    return cs.sim.status(pid) != ProcStatus::NotStarted &&
           cs.sim.status(pid) != ProcStatus::Runnable;
  };

  // --- Solo runs: each pid to completion on a fresh sim. ---
  std::vector<std::uint64_t> solo_units(static_cast<std::size_t>(nprocs));
  for (Pid p = 0; p < nprocs; ++p) {
    CollectSim cs(setup);
    SoloOutcome& out = model.solo_[static_cast<std::size_t>(p)];
    out.completed = run_bounded(cs, p, kSoloUnitBudget, &out);
    out.final_section = cs.sim.section(p);
    solo_units[static_cast<std::size_t>(p)] = out.units;
  }

  // --- Pairwise prefix-perturbed runs: for every ordered pair (p, q),
  // replay each prefix of q's solo schedule and then run p and q in
  // round-robin alternation from that point. The prefix alone reaches the
  // contended branches a perturbed memory state triggers (spin loops,
  // fast-path fallbacks); the alternation additionally reaches the
  // branches that need the peer to act BETWEEN two of p's steps (e.g. the
  // lamport-fast flag scan, taken only when the peer overwrites x after
  // p's own x := p) — a frozen peer can never produce those. When q
  // finishes early the alternation degenerates to p running solo against
  // the final state, so the frozen-prefix battery is subsumed. A crashed
  // q's memory states are a subset of these states, so crash injection
  // needs no separate battery.
  const auto steppable = [](const CollectSim& cs, Pid pid) {
    return cs.sim.status(pid) == ProcStatus::NotStarted ||
           cs.sim.status(pid) == ProcStatus::Runnable;
  };
  for (Pid p = 0; p < nprocs; ++p) {
    for (Pid q = 0; q < nprocs; ++q) {
      if (p == q) {
        continue;
      }
      const std::uint64_t prefixes =
          std::min(solo_units[static_cast<std::size_t>(q)], kMaxPrefixLen);
      for (std::uint64_t k = 1; k <= prefixes; ++k) {
        CollectSim cs(setup);
        bool ok = true;
        for (std::uint64_t i = 0; i < k && ok; ++i) {
          if (!steppable(cs, q)) {
            ok = false;
            break;
          }
          try {
            (void)cs.sim.step(q);
          } catch (const MutualExclusionViolation&) {
            ok = false;
            break;
          }
          collect_unit(cs, q);
        }
        if (!ok) {
          continue;
        }
        for (std::uint64_t i = 0; i < kPerturbedUnitBudget; ++i) {
          const Pid turn = (i % 2 == 0) ? p : q;
          const Pid other = (i % 2 == 0) ? q : p;
          const Pid act = steppable(cs, turn)    ? turn
                          : steppable(cs, other) ? other
                                                 : -1;
          if (act < 0) {
            break;
          }
          try {
            (void)cs.sim.step(act);
          } catch (const MutualExclusionViolation&) {
            break;  // keep the facts collected so far
          }
          collect_unit(cs, act);
        }
      }
    }
  }
  return model;
}

}  // namespace cfc
