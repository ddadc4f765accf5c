#include "analysis/visited_table.h"

#include <algorithm>
#include <utility>

namespace cfc {

namespace {

constexpr std::size_t kInitialCapacity = 64;  // power of two

/// Key 0 marks an empty slot; remap the (astronomically unlikely)
/// fingerprint 0 to a fixed constant — the cache is already approximate
/// at 64-bit-collision fidelity.
constexpr std::uint64_t normalize_key(std::uint64_t key) {
  return key == 0 ? 0x9e3779b97f4a7c15ULL : key;
}

}  // namespace

std::size_t SleepCache::find_slot(std::uint64_t key) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = (key * 0x9e3779b97f4a7c15ULL) & mask;
  while (slots_[i].key != 0 && slots_[i].key != key) {
    i = (i + 1) & mask;
  }
  return i;
}

void SleepCache::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? kInitialCapacity : old.size() * 2, Slot{});
  for (const Slot& s : old) {
    if (s.key != 0) {
      // Spill chains move with the slot: their links are pool indices.
      slots_[find_slot(s.key)] = s;
    }
  }
}

bool SleepCache::covered(const Slot& slot, std::uint32_t sleep) const {
  for (std::uint8_t i = 0; i < slot.inline_count; ++i) {
    if ((slot.inline_masks[i] & ~sleep) == 0) {
      return true;
    }
  }
  for (std::uint32_t n = slot.spill_head; n != kNoNode; n = spill_[n].next) {
    if ((spill_[n].mask & ~sleep) == 0) {
      return true;
    }
  }
  return false;
}

bool SleepCache::subsumed(std::uint64_t raw_key, std::uint32_t sleep) const {
  if (slots_.empty()) {
    return false;
  }
  const std::uint64_t key = normalize_key(raw_key);
  const Slot& slot = slots_[find_slot(key)];
  return slot.key == key && covered(slot, sleep);
}

void SleepCache::insert(std::uint64_t raw_key, std::uint32_t sleep) {
  if (slots_.empty() || used_ * 10 >= slots_.size() * 7) {
    grow();
  }
  const std::uint64_t key = normalize_key(raw_key);
  insert_into(slots_[find_slot(key)], key, sleep);
}

bool SleepCache::check_and_insert(std::uint64_t raw_key,
                                  std::uint32_t sleep) {
  if (slots_.empty() || used_ * 10 >= slots_.size() * 7) {
    grow();
  }
  const std::uint64_t key = normalize_key(raw_key);
  Slot& slot = slots_[find_slot(key)];
  if (slot.key == key && covered(slot, sleep)) {
    return true;
  }
  insert_into(slot, key, sleep);
  return false;
}

void SleepCache::insert_into(Slot& slot, std::uint64_t key,
                             std::uint32_t sleep) {
  if (slot.key == 0) {
    slot.key = key;
    ++used_;
  }

  // Drop stored supersets of the new mask: the new visit explores at
  // least every branch they did, so the antichain stays minimal.
  std::uint8_t kept = 0;
  for (std::uint8_t i = 0; i < slot.inline_count; ++i) {
    if ((sleep & ~slot.inline_masks[i]) != 0) {
      slot.inline_masks[kept++] = slot.inline_masks[i];
    }
  }
  slot.inline_count = kept;
  std::uint32_t* link = &slot.spill_head;
  while (*link != kNoNode) {
    const std::uint32_t n = *link;
    if ((sleep & ~spill_[n].mask) == 0) {
      *link = spill_[n].next;
      spill_[n].next = spill_free_;
      spill_free_ = n;
      --spill_live_;
    } else {
      link = &spill_[n].next;
    }
  }

  if (slot.inline_count < 2) {
    slot.inline_masks[slot.inline_count++] = sleep;
    return;
  }
  std::uint32_t n = spill_free_;
  if (n != kNoNode) {
    spill_free_ = spill_[n].next;
  } else {
    n = static_cast<std::uint32_t>(spill_.size());
    spill_.emplace_back();
  }
  spill_[n] = SpillNode{sleep, slot.spill_head};
  slot.spill_head = n;
  ++spill_live_;
}

void SleepCache::clear() {
  std::fill(slots_.begin(), slots_.end(), Slot{});
  spill_.clear();
  spill_free_ = kNoNode;
  spill_live_ = 0;
  used_ = 0;
}

std::size_t SleepCache::bytes() const {
  return slots_.capacity() * sizeof(Slot) +
         spill_.capacity() * sizeof(SpillNode);
}

std::size_t SleepCache::live_bytes() const {
  return used_ * sizeof(Slot) + spill_live_ * sizeof(SpillNode);
}

}  // namespace cfc
