#include "sa/lint.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/contention_detection.h"
#include "memory/register_file.h"
#include "mutex/mutex_algorithm.h"
#include "naming/naming_algorithm.h"
#include "sched/event_sink.h"
#include "sched/sched.h"
#include "sched/sim.h"

namespace cfc {

const char* name(LintSeverity s) {
  return s == LintSeverity::Error ? "error" : "warning";
}

std::string LintDiagnostic::format() const {
  std::string out = name(severity);
  out += '[';
  out += rule;
  out += "] ";
  out += kind;
  out += '/';
  out += subject;
  out += ": ";
  out += message;
  return out;
}

bool has_errors(const std::vector<LintDiagnostic>& diags) {
  return std::any_of(diags.begin(), diags.end(),
                     [](const LintDiagnostic& d) {
                       return d.severity == LintSeverity::Error;
                     });
}

namespace {

/// The probe size every entry is linted at: within every declared capacity
/// (registration validates max_n >= 2 when set) and a power of two, so the
/// pow2 flag never blocks it.
constexpr int kProbeN = 2;

/// Largest declared max_n the capacity rule instantiates at (every current
/// entry declares 0 or 2; the cap keeps a future mis-declared huge max_n
/// from turning the lint into a stress test).
constexpr int kMaxDeclaredProbe = 16;

/// Unit budget of one solo run. Solo runs of the registry models terminate
/// in well under a hundred units; the budget only bounds a broken
/// (non-terminating) model, which the section-protocol rule then reports.
constexpr std::uint64_t kSoloUnitBudget = 4096;

/// Unit budget of the alternating part of one battery run: the perturbed
/// process may spin forever against its peer, and a spin loop revisits its
/// program points within a few iterations — a short budget collects them.
constexpr std::uint64_t kPerturbedUnitBudget = 1024;

/// Longest prefix of the peer's solo run the battery perturbs against
/// (solo runs are short; this is a defensive cap).
constexpr std::uint64_t kMaxPrefixLen = 256;

/// One pid's solo run, for the section-protocol rule.
struct SoloRun {
  bool completed = false;      ///< the body finished within the budget
  bool entered_entry = false;  ///< some SectionChange moved it to Entry
  bool entered_exit = false;   ///< some SectionChange moved it to Exit
  Section final_section = Section::Remainder;
  std::uint64_t units = 0;     ///< scheduler units, the start unit excluded
};

/// What the rules read, gathered by one sink over every run of one
/// configuration: which registers some access touched, the observed
/// write_field windows, and the section changes of the solo runs.
class LintFacts final : public EventSink {
 public:
  explicit LintFacts(std::size_t registers)
      : touched(registers, false), windows(registers), solo(kProbeN) {}

  void on_event(const TraceEvent& ev) override {
    if (ev.kind == TraceEvent::Kind::SectionChange && ev.pid == solo_pid) {
      SoloRun& run = solo[static_cast<std::size_t>(ev.pid)];
      run.entered_entry = run.entered_entry || ev.to == Section::Entry;
      run.entered_exit = run.entered_exit || ev.to == Section::Exit;
    }
    if (ev.kind != TraceEvent::Kind::Access) {
      return;
    }
    const auto r = static_cast<std::size_t>(ev.access.reg);
    touched[r] = true;
    const std::pair<int, int> window{ev.access.field_shift,
                                     ev.access.field_width};
    if (window.second > 0 &&
        std::find(windows[r].begin(), windows[r].end(), window) ==
            windows[r].end()) {
      windows[r].push_back(window);
    }
  }

  std::vector<bool> touched;
  /// Per register, the (shift, width) windows of its write_field stores.
  std::vector<std::vector<std::pair<int, int>>> windows;
  std::vector<SoloRun> solo;
  Pid solo_pid = -1;  ///< whose section changes are recorded; -1: nobody's
};

/// Gathers the facts of the configuration `setup` builds on a fresh Sim:
/// one solo run per pid, then, for every ordered pid pair (p, q) and every
/// prefix length k of q's solo run, q's first k units followed by p and q
/// in alternation. The prefix reaches the contended branches a perturbed
/// memory state triggers (spin loops, fast-path fallbacks); the alternation
/// also reaches the branches that need the peer to act BETWEEN two of p's
/// steps (e.g. the lamport-fast flag scan, taken only when the peer
/// overwrites x after p's own x := p). A bounded Explorer search does not
/// replace this battery: an unreduced n=2 depth-36 search (48,277 states)
/// touches 28 of thm3-paper-l8's 258 registers, the battery all 258.
template <typename Setup>
LintFacts gather_facts(const Setup& setup, std::size_t registers) {
  LintFacts facts(registers);
  // A mutual-exclusion violation (possible only in battery runs) ends the
  // run and keeps the facts gathered before it.
  const auto run = [&](Sim& sim, Scheduler& sched, std::uint64_t budget) {
    sim.set_trace_recording(false);
    sim.add_sink(facts);
    const auto alg = setup(sim);
    try {
      (void)drive(sim, sched, RunLimits{budget});
    } catch (const MutualExclusionViolation&) {
      return;
    }
  };

  for (Pid p = 0; p < kProbeN; ++p) {
    Sim sim;
    SoloScheduler sched(p);
    facts.solo_pid = p;
    run(sim, sched, kSoloUnitBudget);
    SoloRun& solo = facts.solo[static_cast<std::size_t>(p)];
    solo.completed = !sim.runnable(p);
    solo.final_section = sim.section(p);
    solo.units = static_cast<std::uint64_t>(std::count_if(
        sim.schedule_log().begin(), sim.schedule_log().end(),
        [](const ScheduleUnit& u) { return !u.start_only; }));
  }
  facts.solo_pid = -1;

  for (Pid p = 0; p < kProbeN; ++p) {
    for (Pid q = 0; q < kProbeN; ++q) {
      if (p == q) {
        continue;
      }
      const std::uint64_t prefixes = std::min(
          facts.solo[static_cast<std::size_t>(q)].units, kMaxPrefixLen);
      for (std::uint64_t k = 1; k <= prefixes; ++k) {
        // q's first k units, then p and q alternating, p first.
        std::vector<Pid> script(k + kPerturbedUnitBudget, q);
        for (std::size_t i = k; i < script.size(); i += 2) {
          script[i] = p;
        }
        Sim sim;
        ScriptedScheduler sched(std::move(script));
        run(sim, sched, k + kPerturbedUnitBudget);
      }
    }
  }
  return facts;
}

/// The diagnostics of one registry entry.
struct Report {
  std::string kind;
  std::string subject;
  std::vector<LintDiagnostic> out;

  void add(LintSeverity sev, std::string rule, std::string message) {
    out.push_back(LintDiagnostic{sev, std::move(rule), kind, subject,
                                 std::move(message)});
  }
};

/// capacity-metadata: declared AlgorithmInfo vs the instances it builds.
/// `capacity_at` instantiates the factory at a given n and reports the
/// instance's capacity().
template <typename CapacityAt>
void lint_capacity(Report& report, const AlgorithmInfo& info,
                   int probe_capacity, const CapacityAt& capacity_at) {
  if (probe_capacity < kProbeN) {
    report.add(LintSeverity::Error, "capacity-metadata",
               "capacity() at probe n=" + std::to_string(kProbeN) + " is " +
                   std::to_string(probe_capacity) + " < n");
  }
  if (info.pow2_n_only && info.max_n != 0 &&
      !std::has_single_bit(static_cast<unsigned>(info.max_n))) {
    report.add(LintSeverity::Error, "capacity-metadata",
               "pow2_n_only is set but declared max_n=" +
                   std::to_string(info.max_n) + " is not a power of two");
  }
  if (info.max_n > kProbeN && info.max_n <= kMaxDeclaredProbe) {
    const int cap = capacity_at(info.max_n);
    if (cap < info.max_n) {
      report.add(LintSeverity::Error, "capacity-metadata",
                 "declared max_n=" + std::to_string(info.max_n) +
                     " but capacity() at that size is " + std::to_string(cap));
    }
  }
}

/// dead-register: allocated but never touched by any run.
/// Aggregated into one diagnostic per subject — tree algorithms allocate
/// their full structural layout and leave most of it untouched at a small
/// probe n, and a per-register warning would drown the report in hundreds
/// of lines.
void lint_dead_registers(Report& report, const LintFacts& facts,
                         const RegisterFile& mem) {
  constexpr std::size_t kNamesShown = 4;
  std::vector<std::string> dead;
  for (RegId r = 0; r < static_cast<RegId>(mem.size()); ++r) {
    if (!facts.touched[static_cast<std::size_t>(r)]) {
      dead.emplace_back(mem.reg_name(r));
    }
  }
  if (dead.empty()) {
    return;
  }
  std::string msg = std::to_string(dead.size()) +
                    " register(s) never accessed by any collected unit at "
                    "probe n=" +
                    std::to_string(kProbeN) + ":";
  for (std::size_t i = 0; i < dead.size() && i < kNamesShown; ++i) {
    msg += " '" + dead[i] + "'";
  }
  if (dead.size() > kNamesShown) {
    msg += " (+" + std::to_string(dead.size() - kNamesShown) + " more)";
  }
  report.add(LintSeverity::Warning, "dead-register", std::move(msg));
}

/// atomicity-mismatch: some touched register is wider than the declared l.
void lint_atomicity(Report& report, const LintFacts& facts,
                    const RegisterFile& mem, int declared) {
  for (RegId r = 0; r < static_cast<RegId>(mem.size()); ++r) {
    if (facts.touched[static_cast<std::size_t>(r)] && mem.width(r) > declared) {
      report.add(LintSeverity::Error, "atomicity-mismatch",
                 "register '" + std::string(mem.reg_name(r)) + "' is " +
                     std::to_string(mem.width(r)) +
                     " bits wide but the declared atomicity is " +
                     std::to_string(declared));
    }
  }
}

/// field-overlap: two write_field windows on one register that partially
/// overlap (identical or disjoint windows are the two sound layouts).
void lint_field_overlap(Report& report, const LintFacts& facts,
                        const RegisterFile& mem) {
  for (RegId r = 0; r < static_cast<RegId>(mem.size()); ++r) {
    const auto& windows = facts.windows[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < windows.size(); ++i) {
      for (std::size_t j = i + 1; j < windows.size(); ++j) {
        const auto [s1, w1] = windows[i];
        const auto [s2, w2] = windows[j];
        const bool identical = s1 == s2 && w1 == w2;
        const bool disjoint = s1 + w1 <= s2 || s2 + w2 <= s1;
        if (!identical && !disjoint) {
          report.add(LintSeverity::Error, "field-overlap",
                     "register '" + std::string(mem.reg_name(r)) +
                         "' has partially overlapping write_field windows [" +
                         std::to_string(s1) + "+" + std::to_string(w1) +
                         ") and [" + std::to_string(s2) + "+" +
                         std::to_string(w2) + ")");
        }
      }
    }
  }
}

/// section-protocol: every solo run must terminate in Remainder/Done, and a
/// mutex solo run that entered its entry section must reach its exit
/// section (the windowed measures hang off that pairing).
void lint_sections(Report& report, const LintFacts& facts,
                   bool expect_entry_exit) {
  for (Pid p = 0; p < kProbeN; ++p) {
    const SoloRun& solo = facts.solo[static_cast<std::size_t>(p)];
    if (!solo.completed) {
      report.add(LintSeverity::Error, "section-protocol",
                 "pid " + std::to_string(p) +
                     " did not complete its solo run within the unit budget "
                     "(stuck in section '" +
                     std::string(name(solo.final_section)) + "' after " +
                     std::to_string(solo.units) + " units)");
      continue;
    }
    if (solo.final_section != Section::Remainder &&
        solo.final_section != Section::Done) {
      report.add(LintSeverity::Error, "section-protocol",
                 "pid " + std::to_string(p) + " terminated in section '" +
                     std::string(name(solo.final_section)) +
                     "' instead of Remainder/Done");
    }
    if (expect_entry_exit && solo.entered_entry && !solo.entered_exit) {
      report.add(LintSeverity::Error, "section-protocol",
                 "pid " + std::to_string(p) +
                     " entered its entry section but never reached the exit "
                     "section");
    }
  }
}

/// The one lint driver: checks `entry`'s metadata against an instance at
/// the probe size and every rule against the facts gathered from the
/// configuration `setup` builds.
template <typename Entry, typename Setup>
std::vector<LintDiagnostic> lint_entry(const Entry& entry, const char* kind,
                                       bool expect_entry_exit,
                                       const Setup& setup) {
  Report report{kind, entry.info.name, {}};
  Sim probe;
  const auto alg = entry.factory(probe.memory(), kProbeN);
  const RegisterFile& mem = probe.memory();
  const LintFacts facts = gather_facts(setup, mem.size());
  lint_capacity(report, entry.info, alg->capacity(), [&](int at) {
    Sim big;
    return entry.factory(big.memory(), at)->capacity();
  });
  lint_dead_registers(report, facts, mem);
  // Naming runs under the bit-model discipline: every register is one bit,
  // so it declares no atomicity to cross-check.
  if constexpr (requires { alg->atomicity(); }) {
    lint_atomicity(report, facts, mem, alg->atomicity());
  }
  lint_field_overlap(report, facts, mem);
  lint_sections(report, facts, expect_entry_exit);
  return std::move(report.out);
}

std::vector<LintDiagnostic> lint_naming(const NamingAlgorithmEntry& entry) {
  return lint_entry(entry, "naming", /*expect_entry_exit=*/false,
                    [&](Sim& sim) {
                      return setup_naming(sim, entry.factory, kProbeN);
                    });
}

std::vector<LintDiagnostic> lint_detector(
    const DetectorAlgorithmEntry& entry) {
  return lint_entry(entry, "detector", /*expect_entry_exit=*/false,
                    [&](Sim& sim) {
                      return setup_detection(sim, entry.factory, kProbeN);
                    });
}

}  // namespace

std::vector<LintDiagnostic> lint_mutex(const MutexAlgorithmEntry& entry) {
  return lint_entry(entry, "mutex", /*expect_entry_exit=*/true,
                    [&](Sim& sim) {
                      return setup_mutex(sim, entry.factory, kProbeN,
                                         /*sessions=*/1);
                    });
}

std::vector<LintDiagnostic> lint_registry() {
  std::vector<LintDiagnostic> out;
  const auto append = [&out](std::vector<LintDiagnostic> diags) {
    out.insert(out.end(), std::make_move_iterator(diags.begin()),
               std::make_move_iterator(diags.end()));
  };
  const AlgorithmRegistry& reg = AlgorithmRegistry::instance();
  for (const MutexAlgorithmEntry* e : reg.mutex_algorithms()) {
    append(lint_mutex(*e));
  }
  for (const NamingAlgorithmEntry* e : reg.naming_algorithms()) {
    append(lint_naming(*e));
  }
  for (const DetectorAlgorithmEntry* e : reg.detector_algorithms()) {
    append(lint_detector(*e));
  }
  return out;
}

}  // namespace cfc
