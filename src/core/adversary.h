#ifndef CFC_CORE_ADVERSARY_H
#define CFC_CORE_ADVERSARY_H

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "core/measures.h"
#include "memory/access.h"
#include "sched/sim.h"

namespace cfc {

/// Executable versions of the scheduling adversaries used in the paper's
/// lower-bound proofs. Each takes a `SimSetup` callback that populates a
/// fresh simulator (registers + processes), so the same construction runs
/// against any algorithm.
using SimSetup = std::function<void(Sim&)>;

/// --- Solo-run profiles (Section 2.4). ---

/// The profile of run(p): the access sequence of process p in a run where
/// only p is activated, decomposed into the quantities used by Lemmas 2-6:
///  * writes    — the sequence W(p, m) of (register, value) per write
///  * reads     — the set R(p) of registers p reads
///  * wr        — the sequence wr(p) of registers in first-write order
struct SoloProfile {
  Pid pid = -1;
  std::vector<Access> accesses;
  std::vector<std::pair<RegId, Value>> writes;
  std::set<RegId> reads;
  std::vector<RegId> wr;
  std::optional<int> output;

  [[nodiscard]] std::optional<std::pair<RegId, Value>> W(std::size_t m) const {
    if (m < writes.size()) {
      return writes[m];
    }
    return std::nullopt;
  }
};

/// Runs process `pid` alone (SoloScheduler) in a fresh sim built by `setup`
/// and extracts its profile.
[[nodiscard]] SoloProfile solo_profile(const SimSetup& setup, Pid pid,
                                       std::uint64_t max_steps = 100'000);

/// --- Lemma 2: the two-process merge adversary. ---

/// Lemma 2's condition for a pair of solo profiles: there exists m such that
/// W(p1,m) and W(p2,m) are defined, W(p1,m) != W(p2,m), and Wr(p1,m) is read
/// by p2 or Wr(p2,m) is read by p1. Every *correct* contention detector
/// satisfies this for every pair of distinct processes; an algorithm that
/// violates it falls to the merge adversary below.
[[nodiscard]] bool lemma2_condition(const SoloProfile& a, const SoloProfile& b);

/// Outcome of the Lemma 2 merge construction.
struct MergeResult {
  std::optional<int> output1;
  std::optional<int> output2;
  bool both_terminated = false;
  /// Max whole-run complexity over the two merged processes — the
  /// contention the scripted adversary constructed, measured streaming.
  /// The exhaustive explorer must find at least this much (its schedule
  /// space contains the merge schedule); the explorer tests assert it.
  ComplexityReport max_total;

  [[nodiscard]] bool both_won() const {
    return output1 == 1 && output2 == 1;
  }
};

/// Runs the inductive merge of Lemma 2's proof on processes p1 and p2 in a
/// fresh sim: p1 executes reads until it is about to write, then p2 executes
/// its reads and its next write, then p1 its write; repeat. Against an
/// algorithm violating `lemma2_condition` (e.g. SelfishDetector), both
/// processes stay hidden from each other and both output 1 — a safety
/// violation that proves the lemma's contrapositive.
[[nodiscard]] MergeResult lemma2_merge(const SimSetup& setup, Pid p1, Pid p2,
                                       std::uint64_t max_steps = 100'000);

/// --- Theorem 6: the lockstep symmetry adversary. ---

/// Result of running identical processes in lockstep rounds.
struct LockstepResult {
  /// Rounds executed; the surviving process performed one access per round.
  std::uint64_t rounds = 0;
  /// The process kept in the identical set until the end.
  Pid survivor = -1;
  /// True iff two or more still-identical processes terminated together
  /// (for naming this means duplicate names — a correctness violation the
  /// adversary hunts for; never true for a correct algorithm).
  bool identical_group_terminated = false;
  /// Size of the identical set after each round.
  std::vector<std::size_t> group_sizes;
};

/// Theorem 6's adversary: all processes in `group` start identical (same
/// code, no ids). Each round, every member of the current identical set
/// takes one step; because they are in identical states they all apply the
/// same operation to the same register, and (for any operation other than
/// test-and-flip) at least |set|-1 of them observe the same return value.
/// The adversary keeps the largest same-observation class and repeats.
/// For non-TAF models the set shrinks by at most one per round, forcing
/// n - 1 rounds; with test-and-flip it halves, collapsing in ~log n rounds.
/// Observations are read off the event stream by a sink subscribed for the
/// call, so the run may have trace recording off.
[[nodiscard]] LockstepResult lockstep_symmetry_adversary(
    Sim& sim, std::vector<Pid> group, std::uint64_t max_rounds = 1'000'000);

/// --- Theorems 5 & 7: sequential contention-free runs. ---

/// Drives every process of `sim` to completion one after the other in pid
/// order (the contention-free schedule of Sections 3.2/3.3) and returns the
/// trace for measurement. Returns false if the budget ran out.
bool run_sequentially(Sim& sim, std::uint64_t max_steps = 1'000'000);

}  // namespace cfc

#endif  // CFC_CORE_ADVERSARY_H
