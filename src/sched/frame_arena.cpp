#include "sched/frame_arena.h"

#include <algorithm>
#include <new>

namespace cfc {

namespace {

// Coroutine frames require at most fundamental alignment (the standard
// routes over-aligned frames through a different allocation protocol the
// promise does not opt into). Headers and blocks keep that alignment.
constexpr std::size_t kAlign = alignof(std::max_align_t);

constexpr std::size_t round_up(std::size_t n) {
  return (n + kAlign - 1) & ~(kAlign - 1);
}

// Blocks grow geometrically from small (a Sim that only ever runs a few
// coroutines — a one-shot driver — should not reserve more than a
// page) to large (a long-lived explorer cell amortizes block boundaries
// away). Oversized requests bypass the arena (stats().fallback) rather
// than dedicating a block.
constexpr std::size_t kMinBlockSize = 4 * 1024;
constexpr std::size_t kMaxBlockSize = 256 * 1024;
constexpr std::size_t kMaxPooled = 2 * 1024;

}  // namespace

constinit thread_local FrameArena* FrameArena::current_ = nullptr;

FrameArena::~FrameArena() {
  for (void* block : blocks_) {
    ::operator delete(block);
  }
}

void* FrameArena::allocate(std::size_t bytes) {
  const std::size_t size = round_up(bytes);
  if (size > kMaxPooled) {
    ++stats_.fallback;
    return ::operator new(size);
  }
  for (FreeList& fl : free_lists_) {  // few distinct frame sizes: O(1)-ish
    if (fl.size == size && fl.head != nullptr) {
      void* p = fl.head;
      fl.head = *static_cast<void**>(p);
      ++stats_.reused;
      return p;
    }
  }
  if (bump_left_ < size) {
    const std::size_t block = std::min(
        kMaxBlockSize, kMinBlockSize << std::min<std::size_t>(
                           blocks_.size(), 8));
    bump_ = static_cast<char*>(::operator new(block));
    bump_left_ = block;
    blocks_.push_back(bump_);
    stats_.bytes_reserved += block;
  }
  void* p = bump_;
  bump_ += size;
  bump_left_ -= size;
  ++stats_.fresh;
  return p;
}

void FrameArena::deallocate(void* p, std::size_t bytes) noexcept {
  const std::size_t size = round_up(bytes);
  if (size > kMaxPooled) {
    ::operator delete(p);
    return;
  }
  for (FreeList& fl : free_lists_) {
    if (fl.size == size) {
      *static_cast<void**>(p) = fl.head;
      fl.head = p;
      return;
    }
  }
  *static_cast<void**>(p) = nullptr;
  free_lists_.push_back(FreeList{size, p});
}

}  // namespace cfc
