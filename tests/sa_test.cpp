// The registry linter (src/sa/lint.h) behind cfc_lint. The fixtures
// exercise every diagnostic on deliberately broken algorithms, one fixture
// touches a register only under contention (a coverage hole in the
// pairwise battery shows up as a dead-register warning), and the real
// registry must lint without a single diagnostic.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/algorithm_registry.h"
#include "mutex/mutex_algorithm.h"
#include "sa/lint.h"

namespace cfc {
namespace {

// --- The lint fixtures: one deliberately broken algorithm per rule. ---

/// A well-behaved single-register base; fixtures override what they break.
class FixtureMutex : public MutexAlgorithm {
 public:
  explicit FixtureMutex(RegisterFile& mem) {
    r_ = mem.add_bit("fixture.r");
  }
  Task<void> enter(ProcessContext& ctx, int) override {
    co_await ctx.write(r_, 1);
  }
  Task<void> exit(ProcessContext& ctx, int) override {
    co_await ctx.write(r_, 0);
  }
  Task<Value> try_enter(ProcessContext& ctx, int slot, RegId) override {
    co_await enter(ctx, slot);
    co_return 1;
  }
  [[nodiscard]] int capacity() const override { return 8; }
  [[nodiscard]] int atomicity() const override { return 1; }
  [[nodiscard]] std::string algorithm_name() const override {
    return "fixture";
  }

 protected:
  RegId r_;
};

MutexAlgorithmEntry fixture_entry(std::string name, MutexFactory factory) {
  return MutexAlgorithmEntry{AlgorithmInfo::named(std::move(name)),
                             std::move(factory)};
}

bool has_rule(const std::vector<LintDiagnostic>& diags,
              const std::string& rule, LintSeverity sev) {
  for (const LintDiagnostic& d : diags) {
    if (d.rule == rule && d.severity == sev) {
      return true;
    }
  }
  return false;
}

TEST(SaLint, CleanFixturePasses) {
  const auto diags = lint_mutex(fixture_entry(
      "fixture-clean", [](RegisterFile& mem, int) {
        return std::make_unique<FixtureMutex>(mem);
      }));
  EXPECT_FALSE(has_errors(diags));
  EXPECT_TRUE(diags.empty());
}

TEST(SaLint, DeadRegisterWarns) {
  class DeadReg final : public FixtureMutex {
   public:
    explicit DeadReg(RegisterFile& mem) : FixtureMutex(mem) {
      (void)mem.add_bit("fixture.never_touched");
    }
  };
  const auto diags = lint_mutex(fixture_entry(
      "fixture-dead-register", [](RegisterFile& mem, int) {
        return std::make_unique<DeadReg>(mem);
      }));
  EXPECT_TRUE(has_rule(diags, "dead-register", LintSeverity::Warning));
  EXPECT_FALSE(has_errors(diags));  // a warning, not an error
}

TEST(SaLint, ContendedOnlyRegisterIsNotDead) {
  // Reads its second register only when it finds r held by the other
  // process: solo runs never touch it, the pairwise battery must.
  class ContendedOnly final : public FixtureMutex {
   public:
    explicit ContendedOnly(RegisterFile& mem) : FixtureMutex(mem) {
      backoff_ = mem.add_bit("fixture.backoff");
    }
    Task<void> enter(ProcessContext& ctx, int) override {
      const Value held = co_await ctx.read(r_);
      if (held != 0) {
        co_await ctx.read(backoff_);
      }
      co_await ctx.write(r_, 1);
    }

   private:
    RegId backoff_;
  };
  const auto diags = lint_mutex(fixture_entry(
      "fixture-contended-only", [](RegisterFile& mem, int) {
        return std::make_unique<ContendedOnly>(mem);
      }));
  EXPECT_FALSE(has_rule(diags, "dead-register", LintSeverity::Warning));
  EXPECT_FALSE(has_errors(diags));
}

TEST(SaLint, AtomicityMismatchErrors) {
  class WideReg final : public FixtureMutex {
   public:
    explicit WideReg(RegisterFile& mem) : FixtureMutex(mem) {
      wide_ = mem.add_register("fixture.wide", 4);
    }
    Task<void> enter(ProcessContext& ctx, int) override {
      co_await ctx.write(wide_, 9);  // 4-bit write under declared l = 1
      co_await ctx.write(r_, 1);
    }

   private:
    RegId wide_;
  };
  const auto diags = lint_mutex(fixture_entry(
      "fixture-atomicity", [](RegisterFile& mem, int) {
        return std::make_unique<WideReg>(mem);
      }));
  EXPECT_TRUE(has_rule(diags, "atomicity-mismatch", LintSeverity::Error));
}

TEST(SaLint, FieldOverlapErrors) {
  class OverlappingFields final : public FixtureMutex {
   public:
    explicit OverlappingFields(RegisterFile& mem) : FixtureMutex(mem) {
      packed_ = mem.add_register("fixture.packed", 4);
    }
    Task<void> enter(ProcessContext& ctx, int) override {
      co_await ctx.write_field(packed_, 0, 2, 1);
      co_await ctx.write(r_, 1);
    }
    Task<void> exit(ProcessContext& ctx, int) override {
      co_await ctx.write_field(packed_, 1, 2, 1);  // overlaps [0,2) at bit 1
      co_await ctx.write(r_, 0);
    }
    [[nodiscard]] int atomicity() const override { return 4; }

   private:
    RegId packed_;
  };
  const auto diags = lint_mutex(fixture_entry(
      "fixture-field-overlap", [](RegisterFile& mem, int) {
        return std::make_unique<OverlappingFields>(mem);
      }));
  EXPECT_TRUE(has_rule(diags, "field-overlap", LintSeverity::Error));
}

TEST(SaLint, CapacityMetadataErrors) {
  // Declared max_n above what the built instance supports.
  class Cap2 final : public FixtureMutex {
   public:
    explicit Cap2(RegisterFile& mem) : FixtureMutex(mem) {}
    [[nodiscard]] int capacity() const override { return 2; }
  };
  MutexAlgorithmEntry shrunk = fixture_entry(
      "fixture-capacity", [](RegisterFile& mem, int) {
        return std::make_unique<Cap2>(mem);
      });
  shrunk.info.max_n = 4;
  EXPECT_TRUE(has_rule(lint_mutex(shrunk), "capacity-metadata",
                       LintSeverity::Error));

  // pow2 flag on a non-power-of-two declared capacity (constructed
  // directly — registration itself rejects this shape, which
  // Registry.RegistrationValidatesMetadata covers).
  MutexAlgorithmEntry pow2 = fixture_entry(
      "fixture-pow2", [](RegisterFile& mem, int) {
        return std::make_unique<FixtureMutex>(mem);
      });
  pow2.info.max_n = 6;
  pow2.info.pow2_n_only = true;
  EXPECT_TRUE(has_rule(lint_mutex(pow2), "capacity-metadata",
                       LintSeverity::Error));
}

TEST(SaLint, SectionProtocolErrors) {
  class StuckEnter final : public FixtureMutex {
   public:
    explicit StuckEnter(RegisterFile& mem) : FixtureMutex(mem) {}
    Task<void> enter(ProcessContext& ctx, int) override {
      for (;;) {
        co_await ctx.read(r_);  // spins forever, even solo
      }
    }
  };
  const auto diags = lint_mutex(fixture_entry(
      "fixture-stuck", [](RegisterFile& mem, int) {
        return std::make_unique<StuckEnter>(mem);
      }));
  EXPECT_TRUE(has_rule(diags, "section-protocol", LintSeverity::Error));
}

TEST(SaLint, RegistryLintsClean) {
  // The CI gate in test form, tightened: the registry lints to zero
  // diagnostics of any severity, so a coverage hole in the runs shows up
  // here as a dead-register warning.
  const std::vector<LintDiagnostic> diags = lint_registry();
  for (const LintDiagnostic& d : diags) {
    ADD_FAILURE() << d.format();
  }
  EXPECT_TRUE(diags.empty());
}

}  // namespace
}  // namespace cfc
