// Streamed-bounds cross-checks: a one-pass stream_lower_bounds over a
// generated source must be *bitwise* equal to lower_bounds over the
// materialized instance — every bound is a running max of per-job terms,
// and the opt_sim FIFO recurrence visits jobs in the same arrival order —
// the opt_sim bound must equal the OPT scheduler's max flow, and
// run_scheduler_streamed_with_bounds must report exactly those bounds plus
// the ratio, over every scheduler and workload the streamed-run
// cross-check suite covers.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "src/core/bounds.h"
#include "src/core/job_source.h"
#include "src/core/run.h"
#include "src/core/types.h"
#include "src/workload/distributions.h"
#include "src/workload/generator.h"
#include "src/workload/streaming_source.h"

namespace pjsched {
namespace {

workload::GeneratorConfig base_config(std::size_t jobs) {
  workload::GeneratorConfig cfg;
  cfg.num_jobs = jobs;
  cfg.qps = 800.0;
  cfg.units_per_ms = 100.0;
  cfg.seed = 5;
  cfg.weight_classes = {1.0, 2.0, 8.0};
  return cfg;
}

core::MachineConfig machine16() {
  core::MachineConfig m;
  m.processors = 16;
  m.speed = 1.0;
  return m;
}

void expect_bounds_match_materialized(const core::LowerBoundSet& b,
                                      const core::Instance& inst,
                                      unsigned m) {
  const core::LowerBoundSet want = core::lower_bounds(inst, m);
  EXPECT_EQ(b.jobs, inst.jobs.size());
  // Bitwise, not approximate: both passes round through sim_math.h's
  // helpers in the same job order.
  EXPECT_EQ(b.span, want.span);
  EXPECT_EQ(b.work, want.work);
  EXPECT_EQ(b.opt_sim, want.opt_sim);
  EXPECT_EQ(b.combined, want.combined);
  EXPECT_EQ(b.weighted_span, want.weighted_span);
  EXPECT_EQ(b.weighted_work, want.weighted_work);
  EXPECT_EQ(b.weighted_combined, want.weighted_combined);
}

// A GeneratedJobSource yields the same stream generate_instance
// materializes, so the bounds agree bitwise without an Instance at all.
TEST(StreamBoundsTest, GeneratedSourceMatchesInstanceSource) {
  const auto dist = workload::bing_distribution();
  const workload::GeneratorConfig cfg = base_config(400);
  const core::Instance inst = workload::generate_instance(dist, cfg);

  workload::GeneratedJobSource generated(dist, cfg);
  const core::LowerBoundSet b = core::stream_lower_bounds(generated, 16);
  expect_bounds_match_materialized(b, inst, 16);
}

// The streamed opt_sim bound *is* the Section 6 simulated-OPT scheduler:
// at speed 1 it must reproduce the kOptBound run's max flow bitwise.
TEST(StreamBoundsTest, OptSimEqualsOptSchedulerRun) {
  const auto dist = workload::default_lognormal_distribution();
  const workload::GeneratorConfig cfg = base_config(300);
  const core::Instance inst = workload::generate_instance(dist, cfg);
  const core::ScheduleResult opt =
      run_scheduler(inst, core::parse_scheduler("opt"), machine16());

  workload::GeneratedJobSource source(dist, cfg);
  const core::LowerBoundSet b = core::stream_lower_bounds(source, 16);
  EXPECT_EQ(b.opt_sim, opt.max_flow);
}

class StreamBoundsCrossCheck
    : public ::testing::TestWithParam<const char*> {};

// The ratio entry point: twin generated sources, every scheduler, both
// workloads.  The run half must equal a plain streamed run, the bounds
// half must equal the materialized bounds, and the ratios must divide
// those exact values.
TEST_P(StreamBoundsCrossCheck, RatioCombinesRunAndBounds) {
  const core::SchedulerSpec spec = core::parse_scheduler(GetParam());
  const core::MachineConfig machine = machine16();

  const workload::DiscreteWorkDistribution bing =
      workload::bing_distribution();
  const workload::LognormalWorkDistribution lognormal =
      workload::default_lognormal_distribution();
  const workload::WorkDistribution* dists[] = {&bing, &lognormal};

  for (const workload::WorkDistribution* dist : dists) {
    SCOPED_TRACE(dist->name());
    const workload::GeneratorConfig cfg = base_config(400);
    workload::GeneratedJobSource run_source(*dist, cfg);
    workload::GeneratedJobSource bound_source(*dist, cfg);
    const core::StreamRatioResult res =
        core::run_scheduler_streamed_with_bounds(run_source, bound_source,
                                                 spec, machine);

    workload::GeneratedJobSource plain_source(*dist, cfg);
    const core::StreamRunResult plain =
        run_scheduler_streamed(plain_source, spec, machine);
    EXPECT_EQ(res.run.max_flow, plain.max_flow);
    EXPECT_EQ(res.run.max_weighted_flow, plain.max_weighted_flow);
    EXPECT_EQ(res.run.argmax_flow, plain.argmax_flow);
    EXPECT_EQ(res.run.makespan, plain.makespan);
    EXPECT_EQ(res.run.jobs, plain.jobs);

    const core::Instance inst = workload::generate_instance(*dist, cfg);
    expect_bounds_match_materialized(res.bounds, inst, machine.processors);

    ASSERT_GT(res.bounds.combined, 0.0);
    EXPECT_EQ(res.ratio, res.run.max_flow / res.bounds.combined);
    ASSERT_GT(res.bounds.weighted_combined, 0.0);
    EXPECT_EQ(res.weighted_ratio,
              res.run.max_weighted_flow / res.bounds.weighted_combined);
    // Lower bound means ratio >= 1 for every feasible 1-speed schedule.
    EXPECT_GE(res.ratio, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Schedulers, StreamBoundsCrossCheck,
                         ::testing::Values("fifo", "fifo-exact", "bwf",
                                           "lifo", "sjf", "round-robin",
                                           "equi", "admit-first",
                                           "steal-16-first"),
                         [](const auto& info) {
                           std::string n = info.param;
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });

// The twin-source contract is checked, not assumed: sources that disagree
// on length are a caller bug and throw.
TEST(StreamBoundsTest, TwinSourceMismatchThrows) {
  const auto dist = workload::bing_distribution();
  workload::GeneratedJobSource run_source(dist, base_config(50));
  workload::GeneratedJobSource bound_source(dist, base_config(40));
  EXPECT_THROW(core::run_scheduler_streamed_with_bounds(
                   run_source, bound_source,
                   core::parse_scheduler("fifo"), machine16()),
               std::invalid_argument);
}

TEST(StreamBoundsTest, ZeroProcessorsRejected) {
  const auto dist = workload::bing_distribution();
  workload::GeneratedJobSource source(dist, base_config(5));
  EXPECT_THROW(core::stream_lower_bounds(source, 0), std::invalid_argument);
}

TEST(StreamBoundsTest, EmptySourceYieldsZeroBounds) {
  const core::Instance empty;
  core::InstanceSource source(empty);
  const core::LowerBoundSet b = core::stream_lower_bounds(source, 8);
  EXPECT_EQ(b.jobs, 0u);
  EXPECT_EQ(b.combined, 0.0);
  EXPECT_EQ(b.weighted_combined, 0.0);
}

}  // namespace
}  // namespace pjsched
