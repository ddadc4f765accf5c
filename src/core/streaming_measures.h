#ifndef CFC_CORE_STREAMING_MEASURES_H
#define CFC_CORE_STREAMING_MEASURES_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/measures.h"
#include "memory/types.h"
#include "sched/event_sink.h"

namespace cfc {

/// Pool of spill vectors backing the RegIdSets of one accumulator: each
/// holds the sorted-unique ids >= RegIdSet::kInlineIds of one set.
using RegIdSpill = std::vector<std::vector<RegId>>;

/// Flat set of register ids, backing the register-complexity counts. Ids
/// below kInlineIds live in a 64-bit mask; larger ids go to a sorted-unique
/// spill vector in the owning accumulator's RegIdSpill pool, which the set
/// indexes. The set itself is therefore trivially copyable: the explorer
/// snapshots and restores whole accumulators on every branching DFS node
/// and every sibling restore, and at the n its exhaustive searches reach
/// every id fits the mask, so a snapshot is one memmove of the
/// per-process records with an empty pool beside it.
class RegIdSet {
 public:
  static constexpr RegId kInlineIds = 64;

  void insert(RegId r, RegIdSpill& spill) {
    if (r >= 0 && r < kInlineIds) {
      low_ |= std::uint64_t{1} << static_cast<unsigned>(r);
      return;
    }
    if (spill_ == kNoSpill) {
      // A slot is taken on the first large id and kept across clear(), so
      // the pool grows to at most one slot per set.
      spill_ = static_cast<std::uint32_t>(spill.size());
      spill.emplace_back();
    }
    std::vector<RegId>& ids = spill[spill_];
    const auto it = std::lower_bound(ids.begin(), ids.end(), r);
    if (it == ids.end() || *it != r) {
      ids.insert(it, r);
    }
  }
  void clear(RegIdSpill& spill) {
    low_ = 0;
    if (spill_ != kNoSpill) {
      spill[spill_].clear();  // keeps capacity
    }
  }
  [[nodiscard]] std::size_t size(const RegIdSpill& spill) const {
    return static_cast<std::size_t>(std::popcount(low_)) +
           (spill_ == kNoSpill ? 0 : spill[spill_].size());
  }

 private:
  static constexpr std::uint32_t kNoSpill = 0xffffffffu;

  std::uint64_t low_ = 0;          ///< ids in [0, kInlineIds)
  std::uint32_t spill_ = kNoSpill;  ///< slot in the owner's RegIdSpill
};

/// Streaming replacement for the offline trace measurement: an EventSink
/// that computes, online and per process,
///
///   * the whole-run complexity (== measure_all(trace, pid)),
///   * the max complexity over contention-free sessions
///     (== max_over_windows over contention_free_sessions),
///   * the max complexity over clean entry windows
///     (== max_over_windows over clean_entry_windows), and
///   * the max complexity over exit windows
///     (== max_over_windows over exit_windows),
///
/// replicating the window semantics of core/measures.h exactly — a
/// randomized differential test asserts equality against the trace-based
/// path. Because nothing is materialized, long random-schedule searches can
/// run with Sim trace recording disabled, dropping the per-event allocation
/// cost of the trace from the hot path.
///
/// Copy-assignment is the explorer's per-node snapshot and restore. The
/// per-process records are trivially copyable (RegIdSet), so a copy is one
/// memmove plus the spill pool, which stays empty unless some register id
/// reached RegIdSet::kInlineIds, and the two short lists of open clean
/// windows.
class MeasureAccumulator final : public EventSink {
 public:
  /// `nprocs` must cover every pid that will appear in the run.
  explicit MeasureAccumulator(int nprocs);

  void on_event(const TraceEvent& ev) override;

  /// Whole-run complexity of `pid` (== measure_all on the trace).
  [[nodiscard]] ComplexityReport total(Pid pid) const;

  /// Max complexity over the paper's measurement windows of `pid`.
  [[nodiscard]] ComplexityReport contention_free_session_max(Pid pid) const;
  [[nodiscard]] ComplexityReport clean_entry_max(Pid pid) const;
  [[nodiscard]] ComplexityReport exit_max(Pid pid) const;

  /// Number of *completed* contention-free sessions of `pid` so far.
  [[nodiscard]] int contention_free_session_count(Pid pid) const;

  /// Marks the measurement as cut off (the driver stopped the run on
  /// RunOutcome::BudgetExhausted or an exploration bound): every report
  /// this accumulator returns afterwards carries `truncated = true`.
  void mark_truncated() { truncated_ = true; }
  [[nodiscard]] bool truncated() const { return truncated_; }

  /// --- State digests (visited-state pruning in analysis/explorer). ---

  /// 64-bit hash of the full measurement state: totals, window maxima, open
  /// windows, and the section table. Combine with core/state_fingerprint
  /// when an exploration objective reads whole-run totals. Note the totals
  /// grow with every access, so under this digest no two states along one
  /// path ever merge — use window_digest() for window-maxima objectives.
  [[nodiscard]] std::uint64_t digest() const;

  /// Hash of only the window-measurement state (cf-session / clean-entry /
  /// exit maxima, any open windows, the section table) — everything a
  /// window-maxima objective's future values can depend on, excluding the
  /// monotonically growing totals that would defeat pruning.
  ///
  /// This digest is also the "objective state" of the partial-order
  /// reduction's trace-invariance argument (por/dependence.h): an Access
  /// event updates only its own process's open-window counts and never
  /// reads the section table, while a SectionChange event drives every
  /// window predicate through the section table and the clean flags.
  /// Swapping two adjacent scheduler units therefore leaves this state —
  /// and with it every future window value — unchanged exactly when the
  /// units have no register conflict and at most one of them emitted a
  /// section change, which is the dependence relation the reduced
  /// certified searches commute under.
  [[nodiscard]] std::uint64_t window_digest() const;

  [[nodiscard]] int process_count() const {
    return static_cast<int>(per_pid_.size());
  }

 private:
  /// Incrementally built ComplexityReport: counts plus the distinct-register
  /// sets backing the register-complexity components.
  struct ReportAcc {
    ComplexityReport rep;
    RegIdSet regs;
    RegIdSet read_regs;
    RegIdSet write_regs;
    /// Order-independent multiset hash of every access added since the
    /// last reset (summed, so repetitions count). Every other field is a
    /// function of that multiset, so this single word is a sound state
    /// digest — and it makes digest() an O(1) read where iterating the
    /// register sets per explorer node would dominate the search.
    std::uint64_t multiset_hash = 0;

    void add(const Access& a, RegIdSpill& spill);
    void reset(RegIdSpill& spill);
    [[nodiscard]] ComplexityReport report(const RegIdSpill& spill) const;
    [[nodiscard]] std::uint64_t digest() const;
  };

  /// One measurement window currently open for a process.
  struct WindowState {
    bool open = false;
    bool clean = false;
    ReportAcc acc;
  };

  struct PerPid {
    ReportAcc total;
    WindowState cf_session;
    WindowState clean_entry;
    WindowState exit;
    ComplexityReport cf_session_max;
    ComplexityReport clean_entry_max;
    ComplexityReport exit_max;
    int cf_sessions_completed = 0;
    /// XOR-combinable digest contributions, maintained lazily: the
    /// explorer hashes the accumulator at EVERY DFS node for its
    /// visited-state key, so digest()/window_digest() must be near-reads.
    /// Event handlers only set the dirty flags; the digest getters refresh
    /// flagged contributions and cache them. An access dirties its own
    /// pid. A section change dirties its own pid plus exactly the pids
    /// whose open window it spoiled (a `clean` flag flipped) — no other
    /// per-pid contribution can change. max_hash covers the window maxima
    /// + session count and is refreshed eagerly at window closes (rare).
    mutable std::uint64_t window_contrib = 0;
    mutable std::uint64_t total_contrib = 0;
    std::uint64_t max_hash = 0;
    mutable bool window_dirty = false;
    mutable bool total_dirty = false;
  };

  void on_access(const TraceEvent& ev);
  /// O(1) amortized: the section counters answer the window predicates,
  /// and an interfering transition walks only the open clean windows.
  void on_section_change(const TraceEvent& ev);
  /// Marks every window in `open_clean` (the `window` member of each
  /// listed pid) unclean and dirty, except `keep`'s, and empties the list
  /// down to `keep` if it was listed.
  void spoil(std::vector<Pid>& open_clean, WindowState PerPid::*window,
             Pid keep);
  static void drop(std::vector<Pid>& open_clean, Pid pid);
  void refresh_window_contrib(Pid pid) const;
  void refresh_total_contrib(Pid pid) const;
  void refresh_max_hash(Pid pid);

  [[nodiscard]] bool others_in_remainder(Pid pid) const;
  [[nodiscard]] bool nobody_in_cs_or_exit() const;

  [[nodiscard]] const PerPid& at(Pid pid) const;
  [[nodiscard]] PerPid& at(Pid pid);

  /// Plain data end to end (RegIdSet spills live in spill_), so copying
  /// the accumulator copies per_pid_ with one memmove.
  static_assert(std::is_trivially_copyable_v<PerPid>);

  std::vector<PerPid> per_pid_;
  std::vector<Section> section_;
  RegIdSpill spill_;  ///< ids >= RegIdSet::kInlineIds of every set above
  std::uint64_t section_hash_ = 0;  ///< XOR of per-pid section slots
  int not_in_remainder_ = 0;  ///< processes whose section != Remainder
  int in_cs_or_exit_ = 0;     ///< processes in Critical or Exit
  /// Pids whose cf-session / clean-entry window is open AND clean, each
  /// once: the only windows an interfering transition can spoil. Plain
  /// members, so a snapshot copy carries them.
  std::vector<Pid> clean_cf_open_;
  std::vector<Pid> clean_entry_open_;
  bool truncated_ = false;
};

}  // namespace cfc

#endif  // CFC_CORE_STREAMING_MEASURES_H
