#include "memory/register_file.h"

#include <stdexcept>
#include <utility>

#include "memory/fingerprint.h"

namespace cfc {

RegId RegisterFile::add_register(std::string reg_name, int width_bits,
                                 Value initial) {
  if (width_bits < 1 || width_bits > kMaxWidth) {
    throw std::invalid_argument("register width must be in [1, 64]: " +
                                std::move(reg_name));
  }
  Slot s;
  s.name = std::move(reg_name);
  s.width = width_bits;
  if (width_bits < kMaxWidth && initial > ((Value{1} << width_bits) - 1)) {
    throw std::invalid_argument("initial value does not fit register " +
                                s.name);
  }
  s.initial = initial;
  s.value = initial;
  slots_.push_back(std::move(s));
  const RegId id = static_cast<RegId>(slots_.size()) - 1;
  fp_ ^= fp_slot(static_cast<std::uint64_t>(id), initial);
  return id;
}

RegId RegisterFile::add_bit(std::string reg_name, bool initial) {
  return add_register(std::move(reg_name), 1, initial ? 1 : 0);
}

void RegisterFile::poke(RegId r, Value v) {
  Slot& s = slot(r);
  if (!fits(r, v)) {
    throw std::invalid_argument("poke value does not fit register " + s.name);
  }
  const auto ur = static_cast<std::uint64_t>(r);
  fp_ ^= fp_slot(ur, s.value) ^ fp_slot(ur, v);
  s.value = v;
}

void RegisterFile::reset() {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& s = slots_[i];
    fp_ ^= fp_slot(i, s.value) ^ fp_slot(i, s.initial);
    s.value = s.initial;
  }
}

MemorySnapshot RegisterFile::snapshot() const {
  MemorySnapshot snap;
  snap.reserve(slots_.size());
  for (const Slot& s : slots_) {
    snap.push_back(s.value);
  }
  return snap;
}

void RegisterFile::restore(const MemorySnapshot& snap,
                           std::span<const RegId> written) {
  if (snap.size() != slots_.size()) {
    throw std::invalid_argument(
        "snapshot does not match register file layout");
  }
  for (const RegId r : written) {
    if (r < 0 || r >= size()) {
      throw std::out_of_range("bad register id");
    }
    const auto i = static_cast<std::size_t>(r);
    restore_slot(i, snap[i]);
  }
}

void RegisterFile::restore_slot(std::size_t i, Value v) {
  // Delta restore: a slot already holding its snapshot value needs no
  // write, so neither the width check (the value fits — it is stored) nor
  // a fingerprint update (its contribution is unchanged).
  Slot& s = slots_[i];
  if (s.value == v) {
    return;
  }
  if (s.width < kMaxWidth && v > ((Value{1} << s.width) - 1)) {
    throw std::invalid_argument("snapshot value does not fit register " +
                                s.name);
  }
  fp_ ^= fp_slot(i, s.value) ^ fp_slot(i, v);
  s.value = v;
}

Value RegisterFile::max_value(RegId r) const {
  const int w = slot(r).width;
  if (w >= kMaxWidth) {
    return ~Value{0};
  }
  return (Value{1} << w) - 1;
}

const RegisterFile::Slot& RegisterFile::slot(RegId r) const {
  if (r < 0 || r >= size()) {
    throw std::out_of_range("bad register id");
  }
  return slots_[static_cast<std::size_t>(r)];
}

RegisterFile::Slot& RegisterFile::slot(RegId r) {
  if (r < 0 || r >= size()) {
    throw std::out_of_range("bad register id");
  }
  return slots_[static_cast<std::size_t>(r)];
}

}  // namespace cfc
