#include "memory/register_file.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace cfc {
namespace {

TEST(RegisterFile, AddAndInspect) {
  RegisterFile mem;
  const RegId a = mem.add_register("a", 4, 9);
  const RegId b = mem.add_bit("b", true);
  EXPECT_EQ(mem.size(), 2);
  EXPECT_EQ(mem.width(a), 4);
  EXPECT_EQ(mem.width(b), 1);
  EXPECT_EQ(mem.reg_name(a), "a");
  EXPECT_EQ(mem.peek(a), 9u);
  EXPECT_EQ(mem.peek(b), 1u);
  EXPECT_EQ(mem.initial_value(a), 9u);
}

TEST(RegisterFile, WidthBoundsEnforced) {
  RegisterFile mem;
  EXPECT_THROW(mem.add_register("w0", 0), std::invalid_argument);
  EXPECT_THROW(mem.add_register("w65", 65), std::invalid_argument);
  EXPECT_NO_THROW(mem.add_register("w64", 64));
  EXPECT_NO_THROW(mem.add_register("w1", 1));
}

TEST(RegisterFile, InitialValueMustFit) {
  RegisterFile mem;
  EXPECT_THROW(mem.add_register("r", 3, 8), std::invalid_argument);
  EXPECT_NO_THROW(mem.add_register("r", 3, 7));
}

TEST(RegisterFile, MaxValuePerWidth) {
  RegisterFile mem;
  const RegId r1 = mem.add_register("r1", 1);
  const RegId r8 = mem.add_register("r8", 8);
  const RegId r64 = mem.add_register("r64", 64);
  EXPECT_EQ(mem.max_value(r1), 1u);
  EXPECT_EQ(mem.max_value(r8), 255u);
  EXPECT_EQ(mem.max_value(r64), ~Value{0});
}

TEST(RegisterFile, PokeChecksRange) {
  RegisterFile mem;
  const RegId r = mem.add_register("r", 2);
  mem.poke(r, 3);
  EXPECT_EQ(mem.peek(r), 3u);
  EXPECT_THROW(mem.poke(r, 4), std::invalid_argument);
}

TEST(RegisterFile, ResetRestoresInitialValues) {
  RegisterFile mem;
  const RegId a = mem.add_register("a", 8, 42);
  const RegId b = mem.add_bit("b");
  mem.poke(a, 7);
  mem.poke(b, 1);
  mem.reset();
  EXPECT_EQ(mem.peek(a), 42u);
  EXPECT_EQ(mem.peek(b), 0u);
}

TEST(RegisterFile, BadIdsThrow) {
  RegisterFile mem;
  EXPECT_THROW((void)mem.peek(0), std::out_of_range);
  const RegId r = mem.add_bit("r");
  EXPECT_NO_THROW((void)mem.peek(r));
  EXPECT_THROW((void)mem.peek(r + 1), std::out_of_range);
  EXPECT_THROW((void)mem.width(-1), std::out_of_range);
}

TEST(RegisterFile, FitsMatchesWidth) {
  RegisterFile mem;
  const RegId r = mem.add_register("r", 3);
  EXPECT_TRUE(mem.fits(r, 7));
  EXPECT_FALSE(mem.fits(r, 8));
}

TEST(RegisterFile, SnapshotRestoreRoundTrip) {
  RegisterFile mem;
  const RegId a = mem.add_register("a", 8, 42);
  const RegId b = mem.add_bit("b");
  const RegId c = mem.add_register("c", 64);
  const MemorySnapshot snap = mem.snapshot();
  const std::uint64_t fp = mem.fingerprint();

  mem.poke(a, 7);
  mem.poke(b, 1);
  mem.poke(c, ~Value{0});
  EXPECT_NE(mem.fingerprint(), fp);

  // Only the listed registers are written back (repeats are harmless).
  const RegId some[] = {a, b, a};
  mem.restore(snap, some);
  EXPECT_EQ(mem.peek(a), 42u);
  EXPECT_EQ(mem.peek(b), 0u);
  EXPECT_EQ(mem.peek(c), ~Value{0});
  EXPECT_NE(mem.fingerprint(), fp);

  const RegId all[] = {a, b, c};
  mem.restore(snap, all);
  EXPECT_EQ(mem.peek(c), 0u);
  EXPECT_EQ(mem.fingerprint(), fp);
  EXPECT_EQ(mem.snapshot(), snap);
}

TEST(RegisterFile, IncrementalFingerprintMatchesRebuiltFile) {
  // The incrementally maintained hash must equal the hash of a file that
  // reached the same values by any other poke sequence.
  RegisterFile a;
  RegisterFile b;
  for (int i = 0; i < 6; ++i) {
    std::string label = "r";
    label += std::to_string(i);
    a.add_register(label, 16);
    b.add_register(label, 16);
  }
  a.poke(0, 11);
  a.poke(3, 500);
  a.poke(0, 13);   // overwrite
  a.poke(5, 1);
  b.poke(5, 1);    // different order, different intermediate values
  b.poke(0, 99);
  b.poke(0, 13);
  b.poke(3, 500);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());

  b.poke(3, 501);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(RegisterFile, ResetRestoresInitialFingerprint) {
  RegisterFile mem;
  mem.add_register("a", 8, 42);
  mem.add_bit("b");
  const std::uint64_t fp0 = mem.fingerprint();
  mem.poke(0, 9);
  mem.poke(1, 1);
  mem.reset();
  EXPECT_EQ(mem.fingerprint(), fp0);
}

TEST(RegisterFile, RestoreRejectsBadSnapshots) {
  RegisterFile mem;
  mem.add_register("a", 3);
  const RegId a[] = {0};
  EXPECT_THROW(mem.restore(MemorySnapshot{}, a), std::invalid_argument);
  EXPECT_THROW(mem.restore(MemorySnapshot{1, 2}, a), std::invalid_argument);
  EXPECT_THROW(mem.restore(MemorySnapshot{8}, a), std::invalid_argument);
  const RegId bad[] = {1};
  EXPECT_THROW(mem.restore(MemorySnapshot{7}, bad), std::out_of_range);
  mem.restore(MemorySnapshot{7}, a);
  EXPECT_EQ(mem.peek(0), 7u);
}

}  // namespace
}  // namespace cfc
