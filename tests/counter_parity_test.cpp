// Counter parity: every search counter is defined once (CFC_SEARCH_COUNTERS
// in obs/metrics.h) and reaches both the search's ExploreStats and the
// global MetricRegistry. With the registry enabled, its snapshot after one
// search must equal that search's ExploreStats for every listed counter —
// under source-DPOR, under Off (the unreduced oracle), under a preemption
// bound and for Random seeds, at 1 and 4 threads — while the search itself
// is the same with the registry on or off.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/explorer.h"
#include "core/algorithm_registry.h"
#include "obs/metrics.h"

namespace cfc {
namespace {

struct Case {
  std::string label;
  SearchStrategy strategy;
  ReductionPolicy reduction;
  int depth;
  int preemptions;
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.label; }

Explorer::Config config(const Case& c) {
  Explorer::Config cfg;
  cfg.nprocs = 3;
  cfg.strategy = c.strategy;
  cfg.limits.max_depth = c.depth;
  cfg.limits.max_preemptions = c.preemptions;
  cfg.limits.reduction = c.reduction;
  if (c.strategy == SearchStrategy::Random) {
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
      cfg.seeds.push_back(seed);
    }
  }
  const MutexFactory make =
      AlgorithmRegistry::instance().mutex("peterson-tree").factory;
  cfg.setup = [make](Sim& sim) -> std::shared_ptr<void> {
    return setup_mutex(sim, make, 3, 1);
  };
  cfg.objective.fields = {MeasureField::CleanEntry};
  return cfg;
}

class CounterParity : public ::testing::TestWithParam<Case> {
 protected:
  void TearDown() override {
    obs::MetricRegistry::global().set_enabled(false);
    obs::MetricRegistry::global().reset();
  }
};

TEST_P(CounterParity, RegistrySnapshotEqualsExploreStats) {
  const Case& c = GetParam();
  const Explorer::Config cfg = config(c);
  const Explorer explorer(cfg);
  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  for (const int threads : {1, 4}) {
    ExperimentRunner runner(threads);
    registry.set_enabled(false);
    const Explorer::Result quiet = explorer.run(&runner);

    registry.reset();
    registry.set_enabled(true);
    const Explorer::Result r = explorer.run(&runner);
    const obs::MetricRegistry::Snapshot snap = registry.snapshot();
    registry.set_enabled(false);

    for (const ExploreStatsField& f : explore_stats_fields()) {
      const char* name = obs::metric_desc(f.metric).name;
      EXPECT_EQ(snap.value(f.metric), r.stats.*f.member)
          << c.label << " threads=" << threads << " counter " << name;
      EXPECT_EQ(quiet.stats.*f.member, r.stats.*f.member)
          << c.label << " threads=" << threads << " counter " << name
          << " changed with the registry on";
    }
    if (c.strategy == SearchStrategy::Random) {
      // Not vacuous: every seed ran and stepped.
      EXPECT_GT(r.stats.states_visited, 0u) << c.label;
      EXPECT_EQ(r.stats.runs_completed + r.stats.runs_truncated,
                cfg.seeds.size())
          << c.label;
      continue;
    }
    // The searches are not vacuous: they span several work items and
    // restore at branching nodes.
    EXPECT_GT(r.stats.work_items, 1u) << c.label;
    EXPECT_GT(r.stats.restores, 0u) << c.label;
    EXPECT_EQ(r.stats.races_detected > 0,
              c.reduction == ReductionPolicy::SourceDpor)
        << c.label;
    // The gauge is the largest live cache of any engine run, the planner's
    // among them.
    EXPECT_GE(snap.value(obs::Metric::visited_live_bytes),
              r.stats.visited_live_bytes)
        << c.label;
    EXPECT_GT(snap.value(obs::Metric::visited_live_bytes), 0u) << c.label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Searches, CounterParity,
    ::testing::Values(Case{"SourceDporExhaustive", SearchStrategy::Exhaustive,
                           ReductionPolicy::SourceDpor, 20, -1},
                      Case{"OffExhaustive", SearchStrategy::Exhaustive,
                           ReductionPolicy::Off, 16, -1},
                      Case{"Bounded", SearchStrategy::Bounded,
                           ReductionPolicy::Off, 20, 3},
                      Case{"Random", SearchStrategy::Random,
                           ReductionPolicy::Off, 0, -1}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return info.param.label;
    });

}  // namespace
}  // namespace cfc
