#ifndef CFC_ANALYSIS_SLAB_ARENA_H
#define CFC_ANALYSIS_SLAB_ARENA_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace cfc {

/// Geometric slab allocator for trivially-destructible scratch data — the
/// FrameArena idea (sched/frame_arena.h) generalized to raw typed storage.
/// Blocks double in size and are never freed or moved, so every pointer an
/// alloc() returns stays valid for the arena's lifetime; reset() rewinds
/// the bump cursor and reuses the blocks wholesale (steady state, zero
/// heap traffic). Single-owner, not thread-safe: each user — the parallel
/// planner's work-item prefixes, a SleepCache's spill pool — owns its
/// own arena.
class SlabArena {
 public:
  explicit SlabArena(std::size_t first_block_bytes = 4096)
      : first_block_(first_block_bytes < 64 ? 64 : first_block_bytes) {}

  SlabArena(const SlabArena&) = delete;
  SlabArena& operator=(const SlabArena&) = delete;

  /// Uninitialized storage for `count` objects of T. T must be trivially
  /// destructible (reset() never runs destructors) and no more aligned
  /// than std::max_align_t.
  template <typename T>
  [[nodiscard]] T* alloc(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "SlabArena storage is reclaimed without destructors");
    static_assert(alignof(T) <= alignof(std::max_align_t));
    return static_cast<T*>(raw_alloc(count * sizeof(T), alignof(T)));
  }

  /// Rewinds the cursor to empty, keeping every block for reuse. All
  /// previously returned pointers become dangling.
  void reset() {
    block_ = 0;
    used_ = 0;
  }

  /// Total bytes held across all blocks (the reserved footprint).
  [[nodiscard]] std::uint64_t bytes_reserved() const {
    std::uint64_t total = 0;
    for (const Block& b : blocks_) {
      total += b.size;
    }
    return total;
  }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  void* raw_alloc(std::size_t bytes, std::size_t align) {
    if (bytes == 0) {
      bytes = 1;  // distinct non-null results keep callers simple
    }
    used_ = (used_ + (align - 1)) & ~(align - 1);
    while (block_ < blocks_.size() && used_ + bytes > blocks_[block_].size) {
      ++block_;
      used_ = 0;  // block starts are max_align_t-aligned
    }
    if (block_ == blocks_.size()) {
      std::size_t size = blocks_.empty() ? first_block_
                                         : blocks_.back().size * 2;
      while (size < bytes) {
        size *= 2;
      }
      blocks_.push_back(Block{std::make_unique<std::byte[]>(size), size});
      used_ = 0;
    }
    std::byte* p = blocks_[block_].data.get() + used_;
    used_ += bytes;
    return p;
  }

  std::vector<Block> blocks_;
  std::size_t block_ = 0;  ///< index of the block the cursor is in
  std::size_t used_ = 0;   ///< bytes consumed in that block
  std::size_t first_block_;
};

}  // namespace cfc

#endif  // CFC_ANALYSIS_SLAB_ARENA_H
