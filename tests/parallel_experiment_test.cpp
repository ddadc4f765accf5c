// The parallel experiment engine: ExperimentRunner semantics (full
// coverage, caller participation, exception propagation, nesting) and the
// determinism contract — every experiment entry point must produce
// bit-identical reports on the thread pool and on the single-threaded
// reference engine.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/experiment_runner.h"
#include "analysis/model_census.h"
#include "analysis/naming_complexity.h"
#include "core/algorithm_registry.h"

namespace cfc {
namespace {

void expect_reports_equal(const ComplexityReport& a,
                          const ComplexityReport& b,
                          const std::string& what) {
  EXPECT_EQ(a.steps, b.steps) << what;
  EXPECT_EQ(a.registers, b.registers) << what;
  EXPECT_EQ(a.read_steps, b.read_steps) << what;
  EXPECT_EQ(a.write_steps, b.write_steps) << what;
  EXPECT_EQ(a.read_registers, b.read_registers) << what;
  EXPECT_EQ(a.write_registers, b.write_registers) << what;
  EXPECT_EQ(a.atomicity, b.atomicity) << what;
}

TEST(ExperimentRunner, RunsEveryIndexExactlyOnce) {
  ExperimentRunner pool(4);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.parallel_for(kCount, [&](std::size_t i) { hits[i] += 1; });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ExperimentRunner, SingleThreadedRunsInline) {
  ExperimentRunner seq(1);
  EXPECT_EQ(seq.thread_count(), 1);
  std::vector<std::size_t> order;
  seq.parallel_for(5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ExperimentRunner, PropagatesBodyExceptions) {
  ExperimentRunner pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t i) {
                          if (i == 37) {
                            throw std::runtime_error("cell failure");
                          }
                        }),
      std::runtime_error);
  // The pool survives a throwing job.
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](std::size_t) { count += 1; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ExperimentRunner, NestedParallelForDoesNotDeadlock) {
  ExperimentRunner pool(4);
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { total += 1; });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ExperimentRunner, ZeroCountIsANoop) {
  ExperimentRunner pool(2);
  pool.parallel_for(0, [&](std::size_t) { FAIL(); });
}

// --- Determinism: pool results == single-threaded reference results. ---

TEST(ParallelDeterminism, MutexWorstCaseSearchIsThreadCountInvariant) {
  const MutexFactory factory =
      AlgorithmRegistry::instance().mutex("kessels-tree").factory;
  WorstCaseSearchOptions options;
  options.strategy = SearchStrategy::Random;
  options.seeds = {1, 2, 3, 4, 5, 6, 7, 8};
  ExperimentRunner seq(1);
  ExperimentRunner pool(4);
  const MutexWcSearchResult a =
      search_mutex_worst_case(factory, 8, 2, options, &seq);
  const MutexWcSearchResult b =
      search_mutex_worst_case(factory, 8, 2, options, &pool);
  expect_reports_equal(a.entry, b.entry, "wc entry");
  expect_reports_equal(a.exit, b.exit, "wc exit");
  EXPECT_EQ(a.schedules_tried, b.schedules_tried);
}

TEST(ParallelDeterminism, MutexContentionFreeIsThreadCountInvariant) {
  const MutexFactory factory =
      AlgorithmRegistry::instance().mutex("thm3-exact-l2").factory;
  ExperimentRunner seq(1);
  ExperimentRunner pool(4);
  const MutexCfResult a = measure_mutex_contention_free(
      factory, 16, AccessPolicy::RegistersOnly, 0, &seq);
  const MutexCfResult b = measure_mutex_contention_free(
      factory, 16, AccessPolicy::RegistersOnly, 0, &pool);
  expect_reports_equal(a.session, b.session, "cf session");
  expect_reports_equal(a.entry, b.entry, "cf entry");
  expect_reports_equal(a.exit, b.exit, "cf exit");
  EXPECT_EQ(a.measured_atomicity, b.measured_atomicity);
}

TEST(ParallelDeterminism, DetectorSearchIsThreadCountInvariant) {
  const std::vector<std::uint64_t> seeds = {3, 1, 4, 1, 5};
  const StudySpec spec = StudySpec::of("splitter-tree-l2")
                             .kind(StudyKind::Detector)
                             .n(16)
                             .worst_case(SearchStrategy::Random)
                             .seeds(seeds);
  ExperimentRunner seq(1);
  ExperimentRunner pool(3);
  const StudyResult a = run_study(spec, &seq);
  const StudyResult b = run_study(spec, &pool);
  expect_reports_equal(a.wc, b.wc, "detector wc");
  EXPECT_EQ(a.schedules_tried, seeds.size());  // one schedule per seed
  EXPECT_EQ(a.schedules_tried, b.schedules_tried);
  EXPECT_EQ(a.truncated, b.truncated);
  const DetectorFactory factory =
      AlgorithmRegistry::instance().detector("splitter-tree-l2").factory;
  expect_reports_equal(
      measure_detector_contention_free(factory, 16, &seq),
      measure_detector_contention_free(factory, 16, &pool), "detector cf");
}

TEST(ParallelDeterminism, NamingMeasurementIsThreadCountInvariant) {
  const NamingFactory factory =
      AlgorithmRegistry::instance().naming("tas-read-search").factory;
  ExperimentRunner seq(1);
  ExperimentRunner pool(4);
  const NamingAlgMeasurement a = measure_naming(factory, 16, {1, 2, 3}, &seq);
  const NamingAlgMeasurement b =
      measure_naming(factory, 16, {1, 2, 3}, &pool);
  EXPECT_EQ(a.name, b.name);
  expect_reports_equal(a.cf, b.cf, "naming cf");
  expect_reports_equal(a.wc, b.wc, "naming wc");
}

TEST(ParallelDeterminism, ModelCensusIsThreadCountInvariant) {
  ExperimentRunner seq(1);
  ExperimentRunner pool(4);
  const auto a = run_model_census(8, {1, 2}, &seq);
  const auto b = run_model_census(8, {1, 2}, &pool);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].solvable, b[i].solvable) << i;
    EXPECT_EQ(a[i].algorithms_used, b[i].algorithms_used) << i;
    ASSERT_EQ(a[i].cells.has_value(), b[i].cells.has_value()) << i;
    if (a[i].cells.has_value()) {
      EXPECT_EQ(a[i].cells->cf_step, b[i].cells->cf_step) << i;
      EXPECT_EQ(a[i].cells->cf_register, b[i].cells->cf_register) << i;
      EXPECT_EQ(a[i].cells->wc_step, b[i].cells->wc_step) << i;
      EXPECT_EQ(a[i].cells->wc_register, b[i].cells->wc_register) << i;
    }
  }
}

TEST(ParallelDeterminism, ErrorsSurfaceThroughThePool) {
  // A broken detector must produce the documented logic_error through the
  // parallel engine, not a hang or a silent wrong answer.
  class Defeatist final : public Detector {
   public:
    explicit Defeatist(RegisterFile& mem) { r_ = mem.add_bit("d.r"); }
    Task<void> detect(ProcessContext& ctx, int) override {
      co_await ctx.read(r_);
      ctx.set_output(0);
    }
    [[nodiscard]] int capacity() const override { return 8; }
    [[nodiscard]] int atomicity() const override { return 1; }
    [[nodiscard]] std::string algorithm_name() const override {
      return "defeatist";
    }

   private:
    RegId r_;
  };
  const DetectorFactory factory = [](RegisterFile& mem, int) {
    return std::make_unique<Defeatist>(mem);
  };
  ExperimentRunner pool(4);
  EXPECT_THROW((void)measure_detector_contention_free(factory, 8, &pool),
               std::logic_error);
}

}  // namespace
}  // namespace cfc
