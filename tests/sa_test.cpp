// Static model analysis (src/sa/): the footprint pass behind cfc_lint.
//
//  * The over-approximation suite pins every dynamically observed
//    register conflict (solo + randomized schedules, every registry
//    algorithm including naming) to the static may-conflict table — a
//    coverage hole in the collection pass fails here instead of hiding.
//  * The lint fixtures exercise every cfc_lint diagnostic on deliberately
//    broken algorithms, and the real registry must lint error-free.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/algorithm_registry.h"
#include "core/bounds.h"
#include "core/contention_detection.h"
#include "mutex/mutex_algorithm.h"
#include "naming/naming_algorithm.h"
#include "sa/lint.h"
#include "sa/static_summary.h"
#include "sched/sched.h"
#include "sched/sim.h"

namespace cfc {
namespace {

StaticModel::SetupFn mutex_setup(const MutexFactory& make, int n,
                                 std::vector<std::uint64_t> crash_after = {}) {
  return [make, n, crash_after](Sim& sim) -> std::shared_ptr<void> {
    auto alg = setup_mutex(sim, make, n, /*sessions=*/1);
    for (std::size_t p = 0; p < crash_after.size(); ++p) {
      sim.crash_after(static_cast<Pid>(p), crash_after[p]);
    }
    return alg;
  };
}

StaticModel::SetupFn detector_setup(const DetectorFactory& make, int n) {
  return [make, n](Sim& sim) -> std::shared_ptr<void> {
    return setup_detection(sim, make, n);
  };
}

// --- The over-approximation suite: every dynamically observed conflict is
// in the static table. ---

/// Per-register dynamic observation: which pids were seen reading/writing
/// over a battery of schedules.
struct DynamicFootprint {
  std::vector<std::uint32_t> readers;
  std::vector<std::uint32_t> writers;

  void ensure(std::size_t regs) {
    if (readers.size() < regs) {
      readers.resize(regs, 0);
      writers.resize(regs, 0);
    }
  }

  void record(const Sim& sim) {
    for (const TraceEvent& ev : sim.trace().events()) {
      if (ev.kind != TraceEvent::Kind::Access || ev.pid < 0) {
        continue;
      }
      ensure(static_cast<std::size_t>(ev.access.reg) + 1);
      const std::uint32_t bit = 1u << static_cast<unsigned>(ev.pid);
      if (ev.access.is_write()) {
        writers[static_cast<std::size_t>(ev.access.reg)] |= bit;
      }
      if (!ev.access.is_write() || ev.access.is_read()) {
        readers[static_cast<std::size_t>(ev.access.reg)] |= bit;
      }
    }
  }
};

/// Dry-runs a battery of schedules (one solo run per pid, then randomized
/// schedules over several seeds) and asserts every observed conflicting
/// pair is in the model's may-conflict table.
void expect_overapproximates(const StaticModel::SetupFn& setup, int n,
                             const std::string& what) {
  const StaticModel model = StaticModel::analyze(setup, n);
  DynamicFootprint obs;
  const auto run_one = [&](Scheduler& sched) {
    Sim sim;
    const std::shared_ptr<void> owner = setup(sim);
    try {
      (void)drive(sim, sched, RunLimits{4096});
    } catch (const MutualExclusionViolation&) {
      // Broken subjects (SelfishDetector-style): the partial trace still
      // counts as dynamic observation.
    }
    obs.record(sim);
  };
  for (Pid p = 0; p < n; ++p) {
    SoloScheduler solo(p);
    run_one(solo);
  }
  for (const std::uint64_t seed :
       {1ull, 2ull, 3ull, 4ull, 5ull, 6ull, 7ull, 8ull}) {
    RandomScheduler rnd(seed);
    run_one(rnd);
  }
  for (RegId r = 0; r < static_cast<RegId>(obs.readers.size()); ++r) {
    const std::uint32_t touch = obs.readers[static_cast<std::size_t>(r)] |
                                obs.writers[static_cast<std::size_t>(r)];
    for (Pid a = 0; a < n; ++a) {
      for (Pid b = a + 1; b < n; ++b) {
        const std::uint32_t abit = 1u << static_cast<unsigned>(a);
        const std::uint32_t bbit = 1u << static_cast<unsigned>(b);
        const bool both = (touch & abit) != 0 && (touch & bbit) != 0;
        const std::uint32_t w = obs.writers[static_cast<std::size_t>(r)];
        if (both && (w & (abit | bbit)) != 0) {
          EXPECT_TRUE(model.may_conflict(r, a, b))
              << what << ": observed conflict on register " << r
              << " between pids " << a << " and " << b
              << " missing from the static table";
        }
      }
    }
  }
}

TEST(SaOverApproximation, MutexRegistry) {
  for (const MutexAlgorithmEntry* e :
       AlgorithmRegistry::instance().mutex_for_n(2)) {
    SCOPED_TRACE(e->info.name);
    expect_overapproximates(mutex_setup(e->factory, 2), 2, e->info.name);
  }
}

TEST(SaOverApproximation, MutexRegistryWithCrashInjection) {
  for (const MutexAlgorithmEntry* e :
       AlgorithmRegistry::instance().mutex_for_n(2)) {
    SCOPED_TRACE(e->info.name + " crash");
    expect_overapproximates(mutex_setup(e->factory, 2, {2}), 2,
                            e->info.name + " crash");
  }
}

TEST(SaOverApproximation, NamingRegistry) {
  for (const int n : {2, 3}) {
    for (const NamingAlgorithmEntry* e :
         AlgorithmRegistry::instance().naming_algorithms()) {
      if (e->info.max_n != 0 && n > e->info.max_n) {
        continue;
      }
      if (e->info.pow2_n_only && !bounds::is_power_of_two(n)) {
        continue;
      }
      const NamingFactory make = e->factory;
      const std::string what = e->info.name + " n=" + std::to_string(n);
      SCOPED_TRACE(what);
      expect_overapproximates(
          [make, n](Sim& sim) -> std::shared_ptr<void> {
            return setup_naming(sim, make, n);
          },
          n, what);
    }
  }
}

TEST(SaOverApproximation, DetectorRegistry) {
  for (const int n : {2, 3}) {
    for (const DetectorAlgorithmEntry* e :
         AlgorithmRegistry::instance().detector_algorithms()) {
      const std::string what = e->info.name + " n=" + std::to_string(n);
      SCOPED_TRACE(what);
      expect_overapproximates(detector_setup(e->factory, n), n, what);
    }
  }
}

// --- The static model itself. ---

TEST(SaStaticModel, PetersonFootprint) {
  const MutexFactory peterson =
      AlgorithmRegistry::instance().mutex("peterson-2p").factory;
  const StaticModel model =
      StaticModel::analyze(mutex_setup(peterson, 2), 2);
  EXPECT_EQ(model.nprocs(), 2);
  EXPECT_GT(model.register_count(), 0);
  EXPECT_GT(model.units_collected(), 0u);
  for (Pid p = 0; p < 2; ++p) {
    const SoloOutcome& solo = model.solo_outcome(p);
    EXPECT_TRUE(solo.completed);
    EXPECT_TRUE(solo.entered_entry);
    EXPECT_TRUE(solo.entered_exit);
    EXPECT_GT(solo.units, 0u);
    EXPECT_GE(solo.max_width_accessed, 1);
  }
  // Out-of-range queries answer conservatively.
  EXPECT_TRUE(model.may_conflict(static_cast<RegId>(model.register_count()),
                                 0, 1));
}

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
  // RegistryValidation below covers).
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

TEST(SaLint, RegistryIsErrorFree) {
  // The CI gate in test form: warnings allowed, errors never.
  const std::vector<LintDiagnostic> diags = lint_registry();
  for (const LintDiagnostic& d : diags) {
    EXPECT_NE(d.severity, LintSeverity::Error) << d.format();
  }
}

}  // namespace
}  // namespace cfc
