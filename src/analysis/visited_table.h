#ifndef CFC_ANALYSIS_VISITED_TABLE_H
#define CFC_ANALYSIS_VISITED_TABLE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "analysis/slab_arena.h"

namespace cfc {

/// Flat visited-state cache for the explorer's dominance pruning.
///
/// Maps a 64-bit state fingerprint to the antichain of (depth, preemptions)
/// budgets it was already explored with; a new visit is redundant iff some
/// stored visit had at least as much remaining budget (depth' <= depth and
/// preempt' <= preempt — leaf objectives are monotone along a run, so the
/// dominating subtree's leaves subsume the dominated one's).
///
/// The representation replaces the former
/// unordered_map<u64, vector<pair<int,int>>>: open addressing with linear
/// probing over a power-of-two slot array, each slot holding the key and up
/// to two dominance pairs inline (exhaustive searches keep exactly one —
/// preemptions are constant 0, so the antichain is a singleton); longer
/// antichains spill into pointer-linked nodes carved from a SlabArena
/// (stable addresses, geometric blocks, no realloc copying) and recycled
/// through a free list. One lookup is one hash, a handful of contiguous
/// probes, and zero allocation steady-state; bytes() surfaces the reserved
/// footprint and live_bytes() the occupied subset for ExploreStats
/// accounting.
class VisitedTable {
 public:
  VisitedTable() = default;

  /// True iff a stored visit of `key` dominates (depth, preempt).
  [[nodiscard]] bool dominated(std::uint64_t key, int depth,
                               int preempt) const;

  /// Records a visit of `key` at (depth, preempt), dropping stored pairs
  /// the new one dominates. Values must fit 16 bits (the explorer's depth
  /// budgets are far below that; throws std::out_of_range otherwise).
  void insert(std::uint64_t key, int depth, int preempt);

  /// dominated() + insert() in one probe — the explorer's per-node call:
  /// returns true (and stores nothing) when a stored visit dominates,
  /// otherwise records the visit and returns false.
  bool check_and_insert(std::uint64_t key, int depth, int preempt);

  /// Distinct keys stored.
  [[nodiscard]] std::size_t size() const { return used_; }

  /// Bytes *reserved* by the table: slot-array capacity plus every spill
  /// slab, including freelisted nodes — the number that tracks the actual
  /// memory footprint.
  [[nodiscard]] std::size_t bytes() const;

  /// Bytes of *live* entries: occupied slots plus in-chain spill nodes.
  /// Always <= bytes(); the gap is growth headroom plus the spill
  /// freelist.
  [[nodiscard]] std::size_t live_bytes() const;

 private:
  static constexpr std::uint32_t kNoPair = 0xffffffffu;
  static constexpr std::size_t kInlinePairs = 2;

  struct SpillNode {
    std::uint32_t pair = kNoPair;
    SpillNode* next = nullptr;
  };

  struct Slot {
    std::uint64_t key = 0;  ///< 0 = empty (real key 0 is remapped)
    std::uint32_t inline_pairs[kInlinePairs] = {kNoPair, kNoPair};
    SpillNode* spill_head = nullptr;
  };

  [[nodiscard]] static std::uint64_t normalize(std::uint64_t key);
  [[nodiscard]] bool slot_dominates(const Slot& slot, int depth,
                                    int preempt) const;
  [[nodiscard]] std::size_t find_slot(std::uint64_t key) const;
  void grow();
  void insert_into(Slot& slot, std::uint64_t key, int depth, int preempt);
  void spill_push(Slot& slot, std::uint32_t pair);

  std::vector<Slot> slots_;
  SlabArena spill_arena_{1024};
  SpillNode* spill_free_ = nullptr;  ///< recycled nodes, linked via next
  std::size_t spill_live_ = 0;       ///< nodes currently in some chain
  std::size_t used_ = 0;
};

/// Sleep-set-aware visited cache for *stateful* source-DPOR.
///
/// Maps a state key (state fingerprint x objective digest — the sleep mask
/// is NOT folded into the key) to the antichain of sleep masks the state
/// was already explored under. The subsumption rule: a stored visit with
/// sleep set S covers a new visit with sleep set S' iff S is a subset of
/// S' — the stored subtree explored every branch outside S, a superset of
/// the branches outside S', and leaf objectives are monotone, so every
/// value the new visit could certify was already merged by the stored one.
/// Depth needs no explicit dimension: process digests fold the full
/// per-process unit history, so equal fingerprints imply equal schedule
/// length (equal remaining depth budget) automatically.
///
/// Same layout discipline as VisitedTable: open addressing over a
/// power-of-two slot array, two inline masks per key, longer antichains
/// spilled into arena-backed nodes recycled through a free list. clear()
/// keeps every reservation (slot array, slabs) so a worker can reuse one
/// cache across work items with zero steady-state allocation. The
/// per-item clearing keeps the pruning (and every counter derived from
/// it) thread-count invariant under the work-stealing executor, and it
/// keeps the certified values sound: one cache over a whole search is not
/// (ExploreLimits::prune_visited).
class SleepCache {
 public:
  SleepCache() = default;

  /// True iff a stored visit of `key` subsumes a visit under `sleep`
  /// (some stored mask is a subset of `sleep`).
  [[nodiscard]] bool subsumed(std::uint64_t key, std::uint32_t sleep) const;

  /// Records a visit of `key` under `sleep`, dropping stored supersets
  /// (they are subsumed by the new, wider exploration).
  void insert(std::uint64_t key, std::uint32_t sleep);

  /// subsumed() + insert() in one probe — the explorer's per-node call.
  bool check_and_insert(std::uint64_t key, std::uint32_t sleep);

  /// Drops every entry but keeps the reserved capacity (slot array and
  /// spill slabs) for reuse.
  void clear();

  /// Distinct keys stored.
  [[nodiscard]] std::size_t size() const { return used_; }

  /// Bytes reserved (slot capacity + spill slabs, freelist included).
  [[nodiscard]] std::size_t bytes() const;

  /// Bytes of live entries (occupied slots + in-chain spill nodes).
  [[nodiscard]] std::size_t live_bytes() const;

 private:
  struct SpillNode {
    std::uint32_t mask = 0;
    SpillNode* next = nullptr;
  };

  struct Slot {
    std::uint64_t key = 0;  ///< 0 = empty (real key 0 is remapped)
    std::uint32_t inline_masks[2] = {0, 0};
    std::uint8_t inline_count = 0;  ///< masks are arbitrary: count, not
                                    ///< sentinel, marks the used slots
    SpillNode* spill_head = nullptr;
  };

  [[nodiscard]] std::size_t find_slot(std::uint64_t key) const;
  void grow();
  void insert_into(Slot& slot, std::uint64_t key, std::uint32_t sleep);

  std::vector<Slot> slots_;
  SlabArena spill_arena_{1024};
  SpillNode* spill_free_ = nullptr;
  std::size_t spill_live_ = 0;
  std::size_t used_ = 0;
};

}  // namespace cfc

#endif  // CFC_ANALYSIS_VISITED_TABLE_H
