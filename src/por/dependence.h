#ifndef CFC_POR_DEPENDENCE_H
#define CFC_POR_DEPENDENCE_H

#include <cstdint>

#include "memory/types.h"
#include "sched/run.h"

namespace cfc {

class Sim;

/// --- The measurement-aware dependence relation. ---
///
/// Two scheduler units *commute* (are independent) when swapping them as
/// adjacent steps of a run changes neither the shared-memory state nor any
/// value the measurement objectives can ever read. The explorer's certified
/// searches maximize the streaming window objectives of
/// core/streaming_measures.h (cf-session / clean-entry / exit maxima and
/// whole-run totals), so independence here must make those objectives
/// *trace-invariant*: equal on every linearization of the same
/// Mazurkiewicz trace. The relation below guarantees that by construction:
///
///  * Register conflict. Two accesses to the same register with a write on
///    either side do not commute: the read's returned value (and hence the
///    process's whole future) or the final register value changes.
///    Disjoint-register accesses, and same-register read/read pairs,
///    commute in memory; they also commute in the accumulator, because an
///    Access event only updates its own process's totals and open-window
///    counts and never reads the section table.
///
///  * Section-change adjacency. Every window predicate is driven by
///    SectionChange events: window opens/closes fire on a process's own
///    transitions, and the clean flags read the *global* section table
///    (others_in_remainder, nobody_in_cs_or_exit). Two units that both
///    emitted section changes therefore do not commute — swapping them
///    reorders section-table reads against section-table writes and can
///    flip a window's cleanliness or its open/close interleaving. A unit
///    that emitted NO section change, however, commutes with any section
///    change: an Access event neither reads nor writes the section table,
///    and a SectionChange event neither touches register state nor any
///    other process's window accumulators. Hence the rule: two units are
///    dependent when BOTH are section-change-adjacent; a section-quiet
///    unit is dependent only through a register conflict.
///
///  * Unknown next steps. A process that has not started, or whose next
///    step fires the injected stopping failure, has an unknowable next
///    unit: it is conservatively dependent with everything.
///
/// The mutual-exclusion invariant is also trace-invariant under this
/// relation: a violation (two processes simultaneously in Critical) is a
/// property of the section-event subsequence, whose internal order the
/// relation never commutes — so every linearization of a violating trace
/// violates, and excluding the class exactly mirrors the unreduced
/// explorer's exclusion of each violating schedule.
///
/// Executed units carry full information (StepSummary, captured from
/// Sim::last_step_summary()); a *pending* unit is known only up to its
/// posted access (NextStep below) — whether executing it would emit a
/// section change is unknowable in advance, so the executed-vs-pending
/// form conservatively assumes the pending side may change sections.

/// What is known about a process's NEXT scheduler unit before it runs:
/// the posted pending access, or nothing (unstarted / crash-armed).
struct NextStep {
  bool known = false;  ///< started, not crash-armed, suspended at an access
  bool yield = false;  ///< a local step: posts no shared-memory access
  RegId reg = -1;      ///< valid iff known && !yield
  bool wrote = false;  ///< the posted access can modify the register
};

/// Captures `pid`'s NextStep from a live simulation (unknown when the
/// process is not runnable, not yet started, or crash-armed).
[[nodiscard]] NextStep next_step_of(const Sim& sim, Pid pid);

/// Executed-vs-executed dependence (the race detector's relation): full
/// information on both sides. Inline, like the overload below: the race
/// walk, the cut-point insertions and the sleep transfer call it once per
/// path unit.
[[nodiscard]] inline bool dependent(const StepSummary& a,
                                    const StepSummary& b) {
  if (a.pid == b.pid) {
    return true;  // program order
  }
  if (a.section_changed && b.section_changed) {
    return true;  // both touch the section table the window predicates read
  }
  return a.accessed && b.accessed && a.reg == b.reg &&
         (a.wrote || b.wrote);  // register conflict
}

/// Executed-vs-pending dependence (the sleep-set transfer relation): the
/// pending side's section adjacency is unknowable, so this is
/// `dependent(taken, pend-with-worst-case-adjacency)` — dependent whenever
/// the executed unit changed sections, or on a register conflict.
[[nodiscard]] inline bool dependent(const StepSummary& taken,
                                    const NextStep& pend) {
  if (!pend.known) {
    return true;
  }
  if (taken.section_changed) {
    // The pending unit might change sections too once it runs; assume the
    // worst and keep the pair ordered.
    return true;
  }
  return taken.accessed && !pend.yield && taken.reg == pend.reg &&
         (taken.wrote || pend.wrote);
}

}  // namespace cfc

#endif  // CFC_POR_DEPENDENCE_H
