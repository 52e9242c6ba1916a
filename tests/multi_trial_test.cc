// Tests for the multi-trial runner (src/core/multi_trial.h).
#include "src/core/multi_trial.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/core/bounds.h"

namespace pjsched::core {
namespace {

TrialConfig base_config() {
  TrialConfig cfg;
  cfg.trials = 4;
  cfg.generator.num_jobs = 150;
  cfg.generator.qps = 600.0;
  cfg.generator.seed = 7;
  cfg.machine = {8, 1.0};
  cfg.scheduler.kind = SchedulerKind::kAdmitFirst;
  cfg.scheduler.seed = 3;
  return cfg;
}

TEST(MultiTrialTest, RunsRequestedTrials) {
  const auto dist = workload::bing_distribution();
  const auto out = run_trials(dist, base_config());
  EXPECT_EQ(out.trials, 4u);
  EXPECT_EQ(out.max_flow.count, 4u);
  EXPECT_GT(out.max_flow.mean, 0.0);
  EXPECT_GE(out.max_flow.max, out.max_flow.min);
  EXPECT_GE(out.ratio_to_opt.min, 1.0 - 1e-9);
}

TEST(MultiTrialTest, ZeroTrialsRejected) {
  const auto dist = workload::bing_distribution();
  auto cfg = base_config();
  cfg.trials = 0;
  EXPECT_THROW(run_trials(dist, cfg), std::invalid_argument);
}

TEST(MultiTrialTest, DeterministicGivenSeeds) {
  const auto dist = workload::finance_distribution();
  const auto a = run_trials(dist, base_config());
  const auto b = run_trials(dist, base_config());
  EXPECT_DOUBLE_EQ(a.max_flow.mean, b.max_flow.mean);
  EXPECT_DOUBLE_EQ(a.ratio_to_opt.mean, b.ratio_to_opt.mean);
}

TEST(MultiTrialTest, FixedInstanceIsolatesSchedulerVariance) {
  const auto dist = workload::bing_distribution();
  auto cfg = base_config();
  cfg.fixed_instance = true;
  cfg.scheduler.kind = SchedulerKind::kFifo;  // deterministic scheduler
  const auto out = run_trials(dist, cfg);
  // Same instance + deterministic scheduler: zero variance across trials.
  EXPECT_DOUBLE_EQ(out.max_flow.stddev, 0.0);
  EXPECT_DOUBLE_EQ(out.max_flow.min, out.max_flow.max);
}

TEST(MultiTrialTest, RandomizedSchedulerVariesOnFixedInstance) {
  const auto dist = workload::bing_distribution();
  auto cfg = base_config();
  cfg.fixed_instance = true;
  cfg.trials = 6;
  const auto out = run_trials(dist, cfg);  // admit-first: randomized
  // Different steal seeds virtually always give different max flows on a
  // loaded instance.
  EXPECT_GT(out.max_flow.stddev, 0.0);
}

TEST(MultiTrialTest, FreshInstancesVaryWorkload) {
  const auto dist = workload::bing_distribution();
  auto cfg = base_config();
  cfg.scheduler.kind = SchedulerKind::kOptBound;  // deterministic per instance
  const auto out = run_trials(dist, cfg);
  EXPECT_GT(out.max_flow.stddev, 0.0);  // instances differ across trials
}

void expect_same_summary(const metrics::Summary& got,
                         const metrics::Summary& want) {
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.min, want.min);
  EXPECT_EQ(got.max, want.max);
  EXPECT_EQ(got.mean, want.mean);
  EXPECT_EQ(got.stddev, want.stddev);
  EXPECT_EQ(got.p50, want.p50);
  EXPECT_EQ(got.p90, want.p90);
  EXPECT_EQ(got.p99, want.p99);
}

// The seed contract in multi_trial.h, rebuilt trial by trial: trial t runs
// generator seed + t (or the one fixed instance) under scheduler seed + t.
TEST(MultiTrialTest, TrialTUsesSeedPlusT) {
  const auto dist = workload::bing_distribution();
  for (const bool fixed : {false, true}) {
    auto cfg = base_config();
    cfg.fixed_instance = fixed;
    std::vector<double> max_flows, mean_flows, wmax_flows, ratios;
    for (std::size_t t = 0; t < cfg.trials; ++t) {
      workload::GeneratorConfig gen = cfg.generator;
      if (!fixed) gen.seed += t;
      const Instance inst = workload::generate_instance(dist, gen);
      SchedulerSpec spec = cfg.scheduler;
      spec.seed += t;
      const auto res = run_scheduler(inst, spec, cfg.machine);
      const double bound = lower_bounds(inst, cfg.machine.processors).opt_sim;
      ASSERT_GT(bound, 0.0);
      max_flows.push_back(res.max_flow);
      mean_flows.push_back(res.mean_flow);
      wmax_flows.push_back(res.max_weighted_flow);
      ratios.push_back(res.max_flow / bound);
    }
    SCOPED_TRACE(fixed ? "fixed instance" : "fresh instances");
    const auto out = run_trials(dist, cfg);
    EXPECT_EQ(out.trials, cfg.trials);
    expect_same_summary(out.max_flow, metrics::summarize(max_flows));
    expect_same_summary(out.mean_flow, metrics::summarize(mean_flows));
    expect_same_summary(out.max_weighted_flow,
                        metrics::summarize(wmax_flows));
    expect_same_summary(out.ratio_to_opt, metrics::summarize(ratios));
  }
}

}  // namespace
}  // namespace pjsched::core
