#ifndef CFC_MEMORY_REGISTER_FILE_H
#define CFC_MEMORY_REGISTER_FILE_H

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "memory/types.h"

namespace cfc {

/// A copy of every register's current value, in register-id order. Cheap to
/// take and restore (one Value per register); the backbone of the simulator
/// restore marks used by the schedule-space explorer.
using MemorySnapshot = std::vector<Value>;

/// The shared memory of a simulated system: a set of named registers, each
/// 1..64 bits wide. The *atomicity* of an algorithm (paper, Section 2.1) is
/// the width of the widest register it accesses in one atomic step; the
/// simulator derives it from the widths recorded in the trace.
///
/// RegisterFile is plain storage: atomic access semantics come from the
/// simulator, which executes exactly one access at a time (the interleaving
/// model of Section 2.2). Mutation during a run goes through Sim so every
/// access is counted; `peek`/`poke` exist for checkers and test setup only.
class RegisterFile {
 public:
  /// Maximum supported register width in bits.
  static constexpr int kMaxWidth = 64;

  /// Adds a register and returns its id. `width_bits` must be in [1, 64];
  /// `initial` must fit in `width_bits` bits. Throws std::invalid_argument
  /// otherwise.
  RegId add_register(std::string reg_name, int width_bits, Value initial = 0);

  /// Adds a 1-bit register.
  RegId add_bit(std::string reg_name, bool initial = false);

  /// Number of registers (the paper's *space* complexity, which is distinct
  /// from register complexity).
  [[nodiscard]] int size() const { return static_cast<int>(slots_.size()); }

  [[nodiscard]] int width(RegId r) const { return slot(r).width; }
  [[nodiscard]] std::string_view reg_name(RegId r) const {
    return slot(r).name;
  }
  [[nodiscard]] Value initial_value(RegId r) const { return slot(r).initial; }

  /// Current value; does not count as a step (checker/test use only).
  [[nodiscard]] Value peek(RegId r) const { return slot(r).value; }

  /// Sets the current value directly (test setup only; not a counted step).
  void poke(RegId r, Value v);

  /// Restores every register to its initial value.
  void reset();

  /// Copies every register's current value (O(size), no allocation beyond
  /// the returned vector).
  [[nodiscard]] MemorySnapshot snapshot() const;

  /// Restores the registers listed in `written` (repeats allowed) to the
  /// values captured by `snapshot()`: O(|written|), for a caller that knows
  /// every register written since the snapshot (Sim's rewind keeps that
  /// list). A register changed but not listed keeps its value, which the
  /// caller's fingerprint check catches. The register layout (count,
  /// widths) must be unchanged; throws std::invalid_argument on a size
  /// mismatch or a value that no longer fits its register, and
  /// std::out_of_range on a bad id. Only slots whose value differs are
  /// written (and width-checked and rehashed).
  void restore(const MemorySnapshot& snap, std::span<const RegId> written);

  /// 64-bit incremental hash of the current (register, value) set,
  /// maintained O(1) per mutation. Two register files with the same layout
  /// and the same values have equal fingerprints; used for visited-state
  /// pruning and restore verification, not for equality proofs.
  [[nodiscard]] std::uint64_t fingerprint() const { return fp_; }

  /// Largest value representable in register r.
  [[nodiscard]] Value max_value(RegId r) const;

  /// True iff v fits in register r.
  [[nodiscard]] bool fits(RegId r, Value v) const { return v <= max_value(r); }

 private:
  struct Slot {
    std::string name;
    int width = 1;
    Value initial = 0;
    Value value = 0;
  };

  [[nodiscard]] const Slot& slot(RegId r) const;
  /// Writes `v` into slot i unless it already holds it (width-checked,
  /// rehashed).
  void restore_slot(std::size_t i, Value v);
  [[nodiscard]] Slot& slot(RegId r);

  std::vector<Slot> slots_;
  std::uint64_t fp_ = 0;

  friend class Sim;  // Sim::execute applies counted accesses in place
};

}  // namespace cfc

#endif  // CFC_MEMORY_REGISTER_FILE_H
