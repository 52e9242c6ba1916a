// Cross-cutting consistency checks between independently computed
// quantities: engine counters vs trace events, exact OPT vs analytic
// special cases, and experiment-driver columns vs direct runs.
#include <gtest/gtest.h>

#include "src/core/experiment.h"
#include "src/sched/exact_opt.h"
#include "src/sched/fifo.h"
#include "src/sched/opt_bound.h"
#include "src/sched/work_stealing.h"
#include "src/sim/step_engine.h"
#include "tests/test_util.h"

namespace pjsched {
namespace {

TEST(ConsistencyTest, StepEngineStatsMatchTraceEvents) {
  auto inst = testutil::random_instance(91, 20, 30.0);
  sim::Trace trace;
  sim::StepEngineOptions opt;
  opt.machine = {4, 1.0};
  opt.steal_k = 2;
  opt.seed = 5;
  opt.trace = &trace;
  const auto res = testutil::run_step_engine_on(inst, opt);

  // Every steal attempt and admission recorded in the trace is also
  // counted in the stats, and vice versa.
  EXPECT_EQ(res.stats.steal_attempts, trace.steals().size());
  EXPECT_EQ(res.stats.admissions, trace.admissions().size());
  std::size_t successes = 0;
  for (const auto& ev : trace.steals())
    if (ev.success) ++successes;
  EXPECT_EQ(res.stats.successful_steals, successes);
  // One admission per job.
  EXPECT_EQ(trace.admissions().size(), inst.size());
}

TEST(ConsistencyTest, StepEngineWorkStepsMatchTraceDurations) {
  auto inst = testutil::random_instance(92, 15, 20.0);
  sim::Trace trace;
  sim::StepEngineOptions opt;
  opt.machine = {3, 2.0};
  opt.seed = 7;
  opt.trace = &trace;
  const auto res = testutil::run_step_engine_on(inst, opt);
  double traced_work = 0.0;
  for (const auto& iv : trace.intervals())
    traced_work += (iv.end - iv.start) * 2.0;  // speed 2
  EXPECT_NEAR(traced_work, static_cast<double>(res.stats.work_steps), 1e-6);
}

TEST(ConsistencyTest, ExactOptMatchesOptBoundOnSequentialNonOverlapping) {
  // Gap-separated unit jobs: the fully-parallel relaxation is exact.
  auto inst = testutil::make_instance({
      {0.0, dag::single_node(1)},
      {5.0, dag::single_node(1)},
      {9.0, dag::single_node(1)},
  });
  sched::OptLowerBound bound;
  const double lb = bound.run(inst, {1, 1.0}).max_flow;
  const double opt = sched::exact_optimal_max_flow(inst, 1).max_flow;
  EXPECT_DOUBLE_EQ(lb, opt);
}

TEST(ConsistencyTest, ExactOptMatchesFifoWhenFifoIsOptimal) {
  // Identical unit jobs on one processor: FIFO is exactly optimal.
  std::vector<std::pair<core::Time, dag::Dag>> jobs;
  for (int i = 0; i < 5; ++i)
    jobs.emplace_back(static_cast<core::Time>(i), dag::serial_chain(2, 1));
  auto inst = testutil::make_instance(std::move(jobs));
  sched::FifoScheduler fifo;
  const double f = fifo.run(inst, {1, 1.0}).max_flow;
  const double opt = sched::exact_optimal_max_flow(inst, 1).max_flow;
  EXPECT_DOUBLE_EQ(f, opt);
}

TEST(ConsistencyTest, ExperimentRowsMatchDirectRuns) {
  const auto dist = workload::finance_distribution();
  core::ExperimentConfig cfg;
  cfg.processors = 8;
  cfg.num_jobs = 300;
  cfg.qps_values = {500.0};
  cfg.seed = 9;
  core::SchedulerSpec ws;
  ws.kind = core::SchedulerKind::kStealKFirst;
  ws.steal_k = 4;
  ws.seed = 9;
  cfg.schedulers = {ws};
  const auto rows = core::run_experiment(dist, cfg);
  ASSERT_EQ(rows.size(), 1u);

  // Reproduce the same cell by hand.
  workload::GeneratorConfig gen;
  gen.num_jobs = cfg.num_jobs;
  gen.qps = 500.0;
  gen.units_per_ms = cfg.units_per_ms;
  gen.grains = cfg.grains;
  gen.seed = cfg.seed;
  const auto inst = workload::generate_instance(dist, gen);
  const auto direct = core::run_scheduler(inst, ws, {8, 1.0});
  EXPECT_DOUBLE_EQ(rows[0].max_flow_ms, direct.max_flow / cfg.units_per_ms);
  EXPECT_DOUBLE_EQ(rows[0].mean_flow_ms, direct.mean_flow / cfg.units_per_ms);
  EXPECT_EQ(rows[0].scheduler, "steal-4-first");
}

TEST(ConsistencyTest, SchedulerNameMatchesEngineReportedName) {
  auto inst = testutil::make_instance({{0.0, dag::single_node(2)}});
  for (const char* name :
       {"admit-first", "steal-3-first", "admit-first-bwf",
        "steal-5-first-bwf"}) {
    auto spec = core::parse_scheduler(name);
    const auto sched = core::make_scheduler(spec);
    const auto res = sched->run(inst, {2, 1.0});
    EXPECT_EQ(res.scheduler_name, sched->name());
    EXPECT_EQ(res.scheduler_name, name);
  }
}

}  // namespace
}  // namespace pjsched
