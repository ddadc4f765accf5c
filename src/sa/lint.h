#ifndef CFC_SA_LINT_H
#define CFC_SA_LINT_H

#include <string>
#include <vector>

#include "core/algorithm_registry.h"

namespace cfc {

/// --- Registry linter (sa/): structured diagnostics over observed runs. ---
///
/// Each registered algorithm is instantiated at probe size n=2 and run on
/// fresh simulations: one solo run per pid, then a battery of two-process
/// runs in which one pid's solo prefix is followed by the two pids in
/// alternation (the contended branches — spin loops, fast-path fallbacks —
/// that solo runs never reach). One event sink records which registers
/// the runs touched, their write_field windows and the solo runs' section
/// changes, and the rules check those facts against the metadata the
/// implementation declares: its AlgorithmInfo entry, its
/// capacity()/atomicity() accessors, and the section protocol its driver
/// is supposed to follow. The rules:
///
///   dead-register (Warning)      a register the factory allocated that no
///                                run ever touched — dead
///                                weight in the complexity measures'
///                                denominator, usually a refactor leftover.
///   atomicity-mismatch (Error)   some access touched a register wider
///                                than the declared atomicity l; every
///                                atomicity-parameterized bound in the
///                                paper is stated against l, so an
///                                under-declared l silently inflates them.
///   field-overlap (Error)        two observed write_field windows on one
///                                register partially overlap. Windows must
///                                be identical or disjoint: a partial
///                                overlap makes the packed layout's
///                                per-field ownership ambiguous.
///   capacity-metadata (Error)    the declared AlgorithmInfo capacity
///                                metadata contradicts the instance:
///                                capacity() below the probe n or the
///                                declared max_n, or a pow2_n_only flag on
///                                an entry whose max_n is not a power of
///                                two.
///   section-protocol (Error)     a solo run got stuck inside the unit
///                                budget, or terminated outside
///                                Remainder/Done, or (mutex) entered its
///                                entry section without ever reaching the
///                                exit section — the driver's bookkeeping
///                                would mis-attribute every windowed
///                                measure.
///
/// Diagnostics are deterministic (registry order, pid order, register
/// order), so the CI run's output is stable across machines and thread
/// counts.

enum class LintSeverity {
  Warning,  ///< suspicious but measurement-safe; does not fail the lint
  Error,    ///< metadata/protocol contradiction; fails cfc_lint (exit 1)
};

[[nodiscard]] const char* name(LintSeverity s);

struct LintDiagnostic {
  LintSeverity severity = LintSeverity::Warning;
  std::string rule;     ///< kebab-case rule id, e.g. "dead-register"
  std::string kind;     ///< "mutex" | "naming" | "detector"
  std::string subject;  ///< registry entry name
  std::string message;

  /// "error[atomicity-mismatch] mutex/foo: ..." — the CI-greppable form.
  [[nodiscard]] std::string format() const;
};

/// Lints one registered mutual-exclusion algorithm.
[[nodiscard]] std::vector<LintDiagnostic> lint_mutex(
    const MutexAlgorithmEntry& entry);

/// Lints every entry of the global registry, in registry (name) order per
/// kind: mutex, then naming, then detector.
[[nodiscard]] std::vector<LintDiagnostic> lint_registry();

/// True iff some diagnostic is an Error.
[[nodiscard]] bool has_errors(const std::vector<LintDiagnostic>& diags);

}  // namespace cfc

#endif  // CFC_SA_LINT_H
