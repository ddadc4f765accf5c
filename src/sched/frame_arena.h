#ifndef CFC_SCHED_FRAME_ARENA_H
#define CFC_SCHED_FRAME_ARENA_H

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace cfc {

/// Pooled allocator for coroutine frames.
///
/// The schedule-space explorer restores a DFS node by destroying every
/// process coroutine and re-running the schedule prefix, which recreates
/// the same frames over and over — the same handful of frame sizes, once
/// per process per restore. A general-purpose heap pays full malloc/free
/// for each; this arena makes the recreation allocation-free: memory is
/// bump-allocated from monotonic blocks (never returned to the OS until
/// the arena dies) and freed frames go onto exact-size free lists, so a
/// frame of a size seen before is recycled with two pointer moves.
///
/// Threading: an arena serves ONE thread at a time (the explorer keeps one
/// Sim — and with it one arena — for its planner and one per pool worker,
/// each driven by a single thread). The active arena is published through a thread-local pointer
/// (FrameArena::Scope); Task<T>'s promise operator new consults it, so
/// every coroutine frame created while a Sim is stepping lands in that
/// Sim's arena. Frames created with no active arena fall back to the
/// global heap. Each allocation carries a header naming its owner, so
/// deallocation needs no thread-local lookup and is correct even when the
/// active arena has changed in between.
class FrameArena {
 public:
  struct Stats {
    std::uint64_t fresh = 0;   ///< bump allocations (first time at a size)
    std::uint64_t reused = 0;  ///< free-list hits (recycled frames)
    std::uint64_t fallback = 0;  ///< served by the global heap (oversized)
    std::uint64_t bytes_reserved = 0;  ///< block bytes owned by the arena
  };

  FrameArena() = default;
  FrameArena(const FrameArena&) = delete;
  FrameArena& operator=(const FrameArena&) = delete;
  ~FrameArena();

  /// Returns a block of at least `bytes`, aligned for any coroutine frame.
  /// Precondition for calling deallocate later: the arena outlives the
  /// allocation.
  [[nodiscard]] void* allocate(std::size_t bytes);

  /// Returns a block obtained from allocate() with the same size to the
  /// arena's free lists (the memory stays owned by the arena).
  void deallocate(void* p, std::size_t bytes) noexcept;

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Installs an arena as the thread's frame allocator for the current
  /// scope (nestable; restores the previous arena on destruction).
  class Scope {
   public:
    explicit Scope(FrameArena* arena) noexcept : prev_(current_) {
      current_ = arena;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { current_ = prev_; }

   private:
    FrameArena* prev_;
  };

  [[nodiscard]] static FrameArena* current() noexcept { return current_; }

 private:
  struct FreeList {
    std::size_t size = 0;  ///< rounded allocation size this list serves
    void* head = nullptr;  ///< singly linked through the freed blocks
  };

  // constinit: guarantees constant initialization, so cross-TU accesses
  // read the TLS slot directly instead of calling a dynamic-init wrapper
  // on every coroutine frame allocation.
  static constinit thread_local FrameArena* current_;

  std::vector<void*> blocks_;
  std::vector<FreeList> free_lists_;
  char* bump_ = nullptr;
  std::size_t bump_left_ = 0;
  Stats stats_;
};

namespace detail {

/// Header in front of every coroutine frame, recording its owning arena
/// (null = global heap) so frame_free routes it back without thread-local
/// state. Sized to preserve fundamental alignment for the frame behind it.
struct FrameHeader {
  FrameArena* owner;
  std::size_t size;  ///< total allocation, header included
};
inline constexpr std::size_t kFrameHeaderSize =
    (sizeof(FrameHeader) + alignof(std::max_align_t) - 1) &
    ~(alignof(std::max_align_t) - 1);

}  // namespace detail

/// Allocation entry points for coroutine promises (sched/task.h), inline
/// so the no-arena fast path costs one thread-local read over plain
/// operator new.
[[nodiscard]] inline void* frame_alloc(std::size_t size) {
  const std::size_t total = detail::kFrameHeaderSize + size;
  FrameArena* arena = FrameArena::current();
  void* raw = arena ? arena->allocate(total) : ::operator new(total);
  auto* header = static_cast<detail::FrameHeader*>(raw);
  header->owner = arena;
  header->size = total;
  return static_cast<char*>(raw) + detail::kFrameHeaderSize;
}

inline void frame_free(void* p) noexcept {
  if (p == nullptr) {
    return;
  }
  void* raw = static_cast<char*>(p) - detail::kFrameHeaderSize;
  const detail::FrameHeader header =
      *static_cast<detail::FrameHeader*>(raw);
  if (header.owner != nullptr) {
    header.owner->deallocate(raw, header.size);
  } else {
    ::operator delete(raw);
  }
}

}  // namespace cfc

#endif  // CFC_SCHED_FRAME_ARENA_H
