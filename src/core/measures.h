#ifndef CFC_CORE_MEASURES_H
#define CFC_CORE_MEASURES_H

#include <algorithm>
#include <iosfwd>
#include <vector>

#include "memory/types.h"
#include "sched/run.h"

namespace cfc {

/// A half-open window [begin, end) of event sequence numbers — the paper's
/// run fragment sigma_{i..j}.
struct SeqRange {
  Seq begin = 0;
  Seq end = 0;
};

/// Step and register complexity of one process over one run fragment
/// (Section 2.2), with the read/write refinements used by Lemma 3.
///
///  * steps      — number of shared-memory accesses (step complexity)
///  * registers  — number of *distinct* registers accessed (register
///                 complexity; a lower bound on remote accesses)
///  * read_/write_ splits — read-step/write-step and read-register/
///                 write-register complexity (an access can be only one of
///                 read or write in the atomic-register model; rmw bit ops
///                 count as writes, plain bit reads as reads)
///  * atomicity  — width in bits of the widest register accessed
struct ComplexityReport {
  int steps = 0;
  int registers = 0;
  int read_steps = 0;
  int write_steps = 0;
  int read_registers = 0;
  int write_registers = 0;
  int atomicity = 0;
  /// True when the run(s) behind this report were cut off before completing
  /// (RunOutcome::BudgetExhausted, or an explorer depth/preemption bound):
  /// the values are a lower bound on what an uncut run would have measured.
  /// Propagates through max_with/plus as logical OR.
  bool truncated = false;

  /// Component-wise maximum (for "max over processes / fragments").
  /// Inline: the explorer folds every leaf's fields through it.
  [[nodiscard]] ComplexityReport max_with(const ComplexityReport& o) const {
    ComplexityReport r;
    r.steps = std::max(steps, o.steps);
    r.registers = std::max(registers, o.registers);
    r.read_steps = std::max(read_steps, o.read_steps);
    r.write_steps = std::max(write_steps, o.write_steps);
    r.read_registers = std::max(read_registers, o.read_registers);
    r.write_registers = std::max(write_registers, o.write_registers);
    r.atomicity = std::max(atomicity, o.atomicity);
    r.truncated = truncated || o.truncated;
    return r;
  }

  /// Component-wise sum (entry + exit complexity).
  [[nodiscard]] ComplexityReport plus(const ComplexityReport& o) const;
};

std::ostream& operator<<(std::ostream& os, const ComplexityReport& r);

/// Complexity of process `pid` over the fragment `window` of `trace`.
[[nodiscard]] ComplexityReport measure(const Trace& trace, Pid pid,
                                       SeqRange window);

/// Complexity of process `pid` over the whole trace.
[[nodiscard]] ComplexityReport measure_all(const Trace& trace, Pid pid);

/// --- Measurement windows for mutual exclusion (Section 2.2). ---

/// Contention-free sessions of `pid`: fragments from a Remainder->Entry
/// transition of pid to its next Exit->Remainder transition during which
/// every other process stays in its remainder region (not-started processes
/// count as remainder). The paper's contention-free step/register
/// complexity is the max of `measure` over these windows, over all pids.
[[nodiscard]] std::vector<SeqRange> contention_free_sessions(const Trace& trace,
                                                             Pid pid,
                                                             int nprocs);

/// Clean entry windows of `pid` for the *worst-case* entry complexity:
/// fragments from a Remainder->Entry transition of pid to its next
/// Entry->Critical transition such that no process is in its critical
/// section or exit code in any state of the fragment (the paper's condition
/// 2, which discounts time spent waiting for the previous winner to leave).
[[nodiscard]] std::vector<SeqRange> clean_entry_windows(const Trace& trace,
                                                        Pid pid, int nprocs);

/// Exit windows of `pid`: fragments from Critical->Exit to Exit->Remainder.
[[nodiscard]] std::vector<SeqRange> exit_windows(const Trace& trace, Pid pid);

/// Max of `measure` over a set of windows (zero report if none).
[[nodiscard]] ComplexityReport max_over_windows(
    const Trace& trace, Pid pid, const std::vector<SeqRange>& windows);

}  // namespace cfc

#endif  // CFC_CORE_MEASURES_H
