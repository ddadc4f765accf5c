#ifndef CFC_CORE_STREAMING_MEASURES_H
#define CFC_CORE_STREAMING_MEASURES_H

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
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

/// The measures a MeasureAccumulator can track, each per process. The
/// worst-case searches maximize an ordered list of them
/// (ExploreObjective::fields).
enum class MeasureField : std::uint8_t {
  CleanEntry,  ///< max over clean entry windows (clean_entry_max)
  Exit,        ///< max over exit windows (exit_max)
  CfSession,   ///< max over contention-free sessions
  Total,       ///< the whole run (total)
};

inline constexpr MeasureField kAllMeasureFields[] = {
    MeasureField::CleanEntry, MeasureField::Exit, MeasureField::CfSession,
    MeasureField::Total};

[[nodiscard]] const char* name(MeasureField f);

/// Streaming replacement for the offline trace measurement: an EventSink
/// that computes, online and per process, any subset of
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
/// path, and a field-subset differential asserts that tracking a subset
/// changes none of the tracked values. Because nothing is materialized,
/// long random-schedule searches can run with Sim trace recording
/// disabled, dropping the per-event allocation cost of the trace from the
/// hot path.
///
/// Tracked fields: the constructor fixes the set. A field that is not
/// tracked is never updated, has no storage (so a copy does not carry it)
/// and is not hashed; reading it throws std::logic_error. The section
/// table behind the window predicates is kept only when some window field
/// is tracked. For each tracked window field the accumulator also keeps
/// the max over processes, updated where a per-process maximum changes
/// (a window close), so max_over_pids() of a window field is one read.
///
/// Copy-assignment is the explorer's per-node snapshot and restore. Every
/// per-process record of the tracked fields — plus the section table and
/// the lists of open clean windows — is trivially copyable (RegIdSet) and
/// lives in one buffer, so a copy is one memmove of exactly the tracked
/// state plus the spill pool, which stays empty unless some register id
/// reached RegIdSet::kInlineIds.
class MeasureAccumulator final : public EventSink {
 public:
  /// Tracks every field. `nprocs` must cover every pid that will appear in
  /// the run.
  explicit MeasureAccumulator(int nprocs);

  /// Tracks exactly `fields` (order and repeats do not matter; none = an
  /// accumulator that measures nothing).
  MeasureAccumulator(int nprocs, std::span<const MeasureField> fields);

  void on_event(const TraceEvent& ev) override;

  [[nodiscard]] bool tracks(MeasureField f) const {
    return (tracked_ >> static_cast<unsigned>(f) & 1u) != 0;
  }

  /// Whole-run complexity of `pid` (== measure_all on the trace).
  [[nodiscard]] ComplexityReport total(Pid pid) const;

  /// Max complexity over the paper's measurement windows of `pid`.
  [[nodiscard]] ComplexityReport contention_free_session_max(Pid pid) const;
  [[nodiscard]] ComplexityReport clean_entry_max(Pid pid) const;
  [[nodiscard]] ComplexityReport exit_max(Pid pid) const;

  /// Number of *completed* contention-free sessions of `pid` so far
  /// (tracked with MeasureField::CfSession).
  [[nodiscard]] int contention_free_session_count(Pid pid) const;

  /// The field's max over every process: one read for a window field,
  /// a walk over the processes for Total.
  [[nodiscard]] ComplexityReport max_over_pids(MeasureField f) const;

  /// Marks the measurement as cut off (the driver stopped the run on
  /// RunOutcome::BudgetExhausted or an exploration bound): every report
  /// this accumulator returns afterwards carries `truncated = true`.
  void mark_truncated() { truncated_ = true; }
  [[nodiscard]] bool truncated() const { return truncated_; }

  /// 64-bit hash of the tracked measurement state: for each tracked field
  /// its per-process maxima (or totals) and open windows, plus the section
  /// table when a window field is tracked. Everything the tracked fields'
  /// future values can depend on and nothing else, so the explorer folds
  /// it into its visited-state key (core/state_fingerprint): pruning is
  /// sound for an objective over exactly these fields. Note the totals
  /// grow with every access, so with Total tracked no two states along one
  /// path ever merge.
  ///
  /// The window part is also the "objective state" of the partial-order
  /// reduction's trace-invariance argument (por/dependence.h): an Access
  /// event updates only its own process's open-window counts and never
  /// reads the section table, while a SectionChange event drives every
  /// window predicate through the section table and the clean flags.
  /// Swapping two adjacent scheduler units therefore leaves the window
  /// state — and with it every future window value — unchanged exactly
  /// when the units have no register conflict and at most one of them
  /// emitted a section change, which is the dependence relation the
  /// reduced certified searches commute under.
  [[nodiscard]] std::uint64_t digest() const;

  [[nodiscard]] int process_count() const { return nprocs_; }

 private:
  /// Incrementally built ComplexityReport: counts plus the distinct-register
  /// sets backing the register-complexity components.
  struct ReportAcc {
    int steps = 0;
    int read_steps = 0;
    int write_steps = 0;
    int atomicity = 0;
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
  };

  /// One process's record of one window field: the window currently open
  /// (if any) and the max over the windows closed so far.
  struct Window {
    bool open = false;
    bool clean = false;
    int completed = 0;  ///< CfSession only: completed contention-free sessions
    ReportAcc acc;
    ComplexityReport max;
  };

  /// A process's XOR-combinable digest contributions, maintained lazily:
  /// the explorer hashes the accumulator at EVERY DFS node for its
  /// visited-state key, so digest() must be a near-read. Event handlers
  /// only set the dirty flags; digest() refreshes flagged contributions
  /// and caches them. An access dirties its own pid. A section change
  /// dirties its own pid plus exactly the pids whose open window it
  /// spoiled (a `clean` flag flipped) — no other per-pid contribution can
  /// change. max_hash covers the tracked window maxima + session count and
  /// is updated at window closes (rare), by the closing field's share.
  struct PidHash {
    std::uint64_t window_contrib = 0;
    std::uint64_t total_contrib = 0;
    std::uint64_t max_hash = 0;
    bool window_dirty = false;
    bool total_dirty = false;
  };

  /// A list of pids kept in the store (capacity nprocs, each pid at most
  /// once): the pids whose window of one field is open AND clean, the only
  /// windows an interfering transition can spoil.
  struct PidList {
    std::uint32_t off = 0;   ///< region of nprocs Pids in the store
    std::uint32_t size = 0;
  };

  /// The window fields are MeasureField values 0..2.
  static constexpr std::size_t kWindowFields = 3;
  static constexpr std::uint32_t kNoRegion = 0xffffffffu;

  void on_access(const TraceEvent& ev);
  /// O(1) amortized: the section counters answer the window predicates,
  /// and an interfering transition walks only the open clean windows.
  void on_section_change(const TraceEvent& ev);
  /// Marks every window of field `f` in `open_clean` unclean and dirty,
  /// except `keep`'s, and empties the list down to `keep` if it was
  /// listed.
  void spoil(PidList& open_clean, MeasureField f, Pid keep);
  void push(PidList& list, Pid pid);
  void drop(PidList& list, Pid pid);
  /// Folds a window of `pid` that closed with value `r` into the pid's and
  /// the field's maxima (and, for CfSession, counts the session).
  void close_into_max(MeasureField f, Pid pid, const ComplexityReport& r);
  void refresh_window_contrib(Pid pid) const;
  void refresh_total_contrib(Pid pid) const;

  [[nodiscard]] bool others_in_remainder(Pid pid) const;
  [[nodiscard]] bool nobody_in_cs_or_exit() const;

  [[nodiscard]] std::size_t index(Pid pid) const;
  /// Throws std::logic_error unless `f` is tracked.
  void require(MeasureField f) const;
  [[nodiscard]] ComplexityReport flagged(ComplexityReport r) const {
    r.truncated = r.truncated || truncated_;
    return r;
  }

  /// Reserves a region of nprocs records of T in the store layout.
  template <class T>
  std::uint32_t add_region(std::size_t& bytes) const;
  /// The records of the region at `off`.
  template <class T>
  [[nodiscard]] T* region(std::uint32_t off) const {
    return std::launder(reinterpret_cast<T*>(
        const_cast<std::byte*>(store_.data()) + off));
  }
  [[nodiscard]] Window* windows(MeasureField f) const {
    return region<Window>(window_off_[static_cast<std::size_t>(f)]);
  }
  [[nodiscard]] ReportAcc* totals() const {
    return region<ReportAcc>(total_off_);
  }
  [[nodiscard]] PidHash* hashes() const { return region<PidHash>(hash_off_); }
  [[nodiscard]] Section* sections() const {
    return region<Section>(section_off_);
  }
  [[nodiscard]] Pid* pids(const PidList& list) const {
    return region<Pid>(list.off);
  }

  /// Plain data end to end (RegIdSet spills live in spill_), so the store
  /// copies as bytes.
  static_assert(std::is_trivially_copyable_v<Window>);
  static_assert(std::is_trivially_copyable_v<ReportAcc>);
  static_assert(std::is_trivially_copyable_v<PidHash>);
  static_assert(alignof(Window) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

  int nprocs_ = 0;
  std::uint8_t tracked_ = 0;  ///< bit f: MeasureField f is tracked
  /// The tracked window fields, in MeasureField order.
  std::uint8_t nwindows_ = 0;
  std::array<MeasureField, kWindowFields> window_fields_{};
  /// Every per-process record of the tracked fields, back to back in one
  /// buffer — window records per tracked window field, totals, digest
  /// contributions, the section table and the two open-clean lists — so a
  /// snapshot copy is one memmove of exactly the tracked state. Regions of
  /// untracked fields are absent (kNoRegion).
  std::vector<std::byte> store_;
  std::array<std::uint32_t, kWindowFields> window_off_{kNoRegion, kNoRegion,
                                                       kNoRegion};
  std::uint32_t total_off_ = kNoRegion;
  std::uint32_t hash_off_ = kNoRegion;
  std::uint32_t section_off_ = kNoRegion;  ///< kept iff a window is tracked
  PidList clean_cf_open_;
  PidList clean_entry_open_;
  /// Max over processes of each tracked window field.
  std::array<ComplexityReport, kWindowFields> window_max_{};
  RegIdSpill spill_;  ///< ids >= RegIdSet::kInlineIds of every set above
  std::uint64_t section_hash_ = 0;  ///< XOR of per-pid section slots
  int not_in_remainder_ = 0;  ///< processes whose section != Remainder
  int in_cs_or_exit_ = 0;     ///< processes in Critical or Exit
  bool truncated_ = false;
};

}  // namespace cfc

#endif  // CFC_CORE_STREAMING_MEASURES_H
