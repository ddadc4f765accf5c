#ifndef CFC_ANALYSIS_VISITED_TABLE_H
#define CFC_ANALYSIS_VISITED_TABLE_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cfc {

/// The explorer's visited-state cache, for every DFS policy.
///
/// Maps a state key (state fingerprint x objective digest, x the last pid
/// under a preemption bound — the visit mask is NOT folded into the key)
/// to the antichain of visit masks the state was already explored under.
/// The subsumption rule: a stored visit with mask S covers a new visit
/// with mask S' iff S is a subset of S'. Under source-DPOR the mask is the
/// sleep set (stateful DPOR): the stored subtree explored every branch
/// outside S, a superset of the branches outside S', and leaf objectives
/// are monotone, so every value the new visit could certify was already
/// merged by the stored one. Under a preemption bound the mask is the
/// budget already spent, unary-coded ((1 << spent) - 1): the subset test
/// reads "the stored visit had at least as much budget left". Unreduced
/// exhaustive visits store 0. Depth needs no explicit dimension: process
/// digests fold the full per-process unit history, so equal fingerprints
/// imply equal schedule length (equal remaining depth budget)
/// automatically.
///
/// Layout: open addressing with linear probing over a power-of-two slot
/// array of 24-byte slots, two inline masks per key. Longer antichains
/// spill into nodes of one pool vector, linked by 32-bit indices (so a
/// rehash or a pool reallocation moves no link) and recycled through an
/// index free list. One lookup is one hash, a handful of contiguous
/// probes, and zero allocation steady-state. clear() keeps every
/// reservation (slot array, spill pool) so a worker can reuse one cache
/// across work items. The per-item clearing keeps the pruning (and every
/// counter derived from it) independent of which worker runs which item,
/// and it keeps source-DPOR's certified values sound: one cache over a
/// whole search is not (ExploreLimits::prune_visited).
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
  /// spill pool) for reuse.
  void clear();

  /// Distinct keys stored.
  [[nodiscard]] std::size_t size() const { return used_; }

  /// Bytes reserved (slot capacity + spill pool, freelist included).
  [[nodiscard]] std::size_t bytes() const;

  /// Bytes of live entries (occupied slots + in-chain spill nodes).
  [[nodiscard]] std::size_t live_bytes() const;

 private:
  /// End of a spill chain (and of the free list).
  static constexpr std::uint32_t kNoNode = 0xFFFFFFFFu;

  struct SpillNode {
    std::uint32_t mask = 0;
    std::uint32_t next = kNoNode;  ///< index into spill_
  };

  struct Slot {
    std::uint64_t key = 0;  ///< 0 = empty (real key 0 is remapped)
    std::uint32_t inline_masks[2] = {0, 0};
    std::uint8_t inline_count = 0;  ///< masks are arbitrary: count, not
                                    ///< sentinel, marks the used slots
    std::uint32_t spill_head = kNoNode;  ///< index into spill_
  };

  [[nodiscard]] std::size_t find_slot(std::uint64_t key) const;
  [[nodiscard]] bool covered(const Slot& slot, std::uint32_t sleep) const;
  void grow();
  void insert_into(Slot& slot, std::uint64_t key, std::uint32_t sleep);

  std::vector<Slot> slots_;
  std::vector<SpillNode> spill_;  ///< spill pool: live chains + free list
  std::uint32_t spill_free_ = kNoNode;
  std::size_t spill_live_ = 0;
  std::size_t used_ = 0;
};

}  // namespace cfc

#endif  // CFC_ANALYSIS_VISITED_TABLE_H
