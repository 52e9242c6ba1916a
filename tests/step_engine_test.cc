// Tests for the work-stealing step engine (src/sim/step_engine.h): exact
// step accounting on hand instances, admit-first vs steal-k-first gating,
// determinism, speed scaling, and audit compliance.
#include "src/sim/step_engine.h"

#include <gtest/gtest.h>

#include <limits>

#include "src/dag/builders.h"
#include "src/metrics/audit.h"
#include "tests/test_util.h"

namespace pjsched {
namespace {

using testutil::make_instance;

core::StreamRunResult run_ws(const core::Instance& inst, unsigned m,
                             unsigned k = 0, double speed = 1.0,
                             std::uint64_t seed = 1,
                             sim::Trace* trace = nullptr) {
  sim::StepEngineOptions opt;
  opt.machine = {m, speed};
  opt.steal_k = k;
  opt.seed = seed;
  opt.trace = trace;
  return testutil::run_step_engine_on(inst, opt);
}

TEST(StepEngineTest, SingleWorkerSequentialExact) {
  // Admit-first, m=1: admit at step 0 and work 5 consecutive steps.
  auto inst = make_instance({{0.0, dag::single_node(5)}});
  const auto res = run_ws(inst, 1, 0);
  EXPECT_DOUBLE_EQ(res.completion[0], 5.0);
  EXPECT_EQ(res.stats.work_steps, 5u);
  EXPECT_EQ(res.stats.admissions, 1u);
  EXPECT_EQ(res.stats.steal_attempts, 0u);
}

TEST(StepEngineTest, StealKDelaysAdmissionExactly) {
  // m=1, k=2: two failed steal steps (no victims), then admit + work.
  auto inst = make_instance({{0.0, dag::single_node(5)}});
  const auto res = run_ws(inst, 1, 2);
  EXPECT_DOUBLE_EQ(res.completion[0], 7.0);
  EXPECT_EQ(res.stats.steal_attempts, 2u);
  EXPECT_EQ(res.stats.successful_steals, 0u);
}

TEST(StepEngineTest, SpeedScalesStepDuration) {
  // Speed 2: each step is 0.5 time; 4 units complete at t = 2.
  auto inst = make_instance({{0.0, dag::single_node(4)}});
  const auto res = run_ws(inst, 1, 0, 2.0);
  EXPECT_DOUBLE_EQ(res.completion[0], 2.0);
}

TEST(StepEngineTest, ArrivalMapsToNextStepBoundary) {
  // Speed 1; arrival at 2.3 -> first step at 3; 1 unit -> completes at 4.
  auto inst = make_instance({{2.3, dag::single_node(1)}});
  const auto res = run_ws(inst, 1, 0);
  EXPECT_DOUBLE_EQ(res.completion[0], 4.0);
}

TEST(StepEngineTest, StarJobChainOfEnables) {
  // star(1): root then one child, same worker continues; 2 steps.
  auto inst = make_instance({{0.0, dag::star(1)}});
  const auto res = run_ws(inst, 2, 0, 1.0, 7);
  EXPECT_DOUBLE_EQ(res.completion[0], 2.0);
}

TEST(StepEngineTest, ChainRunsWithoutSteals) {
  // A chain admitted by one worker never exposes stealable nodes.
  auto inst = make_instance({{0.0, dag::serial_chain(6, 2)}});
  const auto res = run_ws(inst, 4, 0, 1.0, 3);
  EXPECT_DOUBLE_EQ(res.completion[0], 12.0);
  EXPECT_EQ(res.stats.successful_steals, 0u);
}

TEST(StepEngineTest, DeterministicGivenSeed) {
  auto inst = testutil::random_instance(5, 30, 60.0);
  const auto a = run_ws(inst, 4, 2, 1.0, 99);
  const auto b = run_ws(inst, 4, 2, 1.0, 99);
  EXPECT_EQ(a.completion, b.completion);
  EXPECT_EQ(a.stats.steal_attempts, b.stats.steal_attempts);
  EXPECT_EQ(a.stats.successful_steals, b.stats.successful_steals);
}

TEST(StepEngineTest, SeedsChangeTheSchedule) {
  // With many parallel jobs, different seeds virtually always give
  // different steal totals.
  auto inst = testutil::random_instance(6, 40, 40.0);
  const auto a = run_ws(inst, 4, 0, 1.0, 1);
  const auto b = run_ws(inst, 4, 0, 1.0, 2);
  EXPECT_NE(a.stats.steal_attempts, b.stats.steal_attempts);
}

TEST(StepEngineTest, AuditCleanAdmitFirst) {
  auto inst = testutil::random_instance(7, 25, 50.0);
  sim::Trace trace;
  const auto res = run_ws(inst, 3, 0, 1.0, 11, &trace);
  const auto report =
      metrics::audit_schedule(inst, {3, 1.0}, trace, res.completion);
  EXPECT_TRUE(report.ok) << report.to_string();
}

TEST(StepEngineTest, AuditCleanStealKFirstWithSpeed) {
  auto inst = testutil::random_instance(8, 25, 50.0);
  sim::Trace trace;
  const auto res = run_ws(inst, 4, 8, 2.0, 13, &trace);
  const auto report =
      metrics::audit_schedule(inst, {4, 2.0}, trace, res.completion);
  EXPECT_TRUE(report.ok) << report.to_string();
}

TEST(StepEngineTest, WorkStepsEqualTotalWork) {
  auto inst = testutil::random_instance(9, 20, 30.0);
  const auto res = run_ws(inst, 4, 0, 1.0, 17);
  EXPECT_EQ(res.stats.work_steps, inst.total_work());
}

TEST(StepEngineTest, IdleGapFastForwardKeepsTimesExact) {
  // Two tiny jobs separated by a huge idle gap.
  auto inst = make_instance({
      {0.0, dag::single_node(2)},
      {100000.0, dag::single_node(3)},
  });
  const auto res = run_ws(inst, 2, 4, 1.0, 5);
  EXPECT_DOUBLE_EQ(res.job_flow[0] + 0.0, res.completion[0]);
  EXPECT_DOUBLE_EQ(res.completion[1], 100003.0);  // admitted immediately:
  // the fast-forward saturates fail counters, so no k-step delay recurs.
}

TEST(StepEngineTest, FlowNeverBeatsCriticalPathOverSpeed) {
  auto inst = testutil::random_instance(10, 30, 80.0);
  const double s = 2.0;
  const auto res = run_ws(inst, 4, 0, s, 23);
  for (std::size_t i = 0; i < inst.jobs.size(); ++i) {
    const double span = static_cast<double>(inst.jobs[i].graph.critical_path());
    EXPECT_GE(res.job_flow[i] + 1e-9, span / s);
    const double work = static_cast<double>(inst.jobs[i].graph.total_work());
    EXPECT_GE(res.job_flow[i] + 1e-9, work / (4 * s));
  }
}

TEST(StepEngineTest, StealsHappenOnWideJobs) {
  // A single massively parallel job on many workers must trigger
  // successful steals (the owner cannot run 16 grains alone as fast).
  auto inst = make_instance({{0.0, dag::parallel_for_dag(16, 50)}});
  const auto res = run_ws(inst, 8, 0, 1.0, 29);
  EXPECT_GT(res.stats.successful_steals, 0u);
  // With 8 workers it must beat sequential execution comfortably.
  EXPECT_LT(res.completion[0], 0.5 * (16 * 50 + 2));
}

TEST(StepEngineTest, InvalidArgumentsRejected) {
  auto inst = make_instance({{0.0, dag::single_node(1)}});
  sim::StepEngineOptions opt;
  opt.machine = {0, 1.0};
  EXPECT_THROW(testutil::run_step_engine_on(inst, opt), std::invalid_argument);
  opt.machine = {1, 0.0};
  EXPECT_THROW(testutil::run_step_engine_on(inst, opt), std::invalid_argument);
}

TEST(StepEngineTest, NonFiniteSpeedRejected) {
  auto inst = make_instance({{0.0, dag::single_node(1)}});
  sim::StepEngineOptions opt;
  opt.machine = {1, std::numeric_limits<double>::infinity()};
  EXPECT_THROW(testutil::run_step_engine_on(inst, opt), std::invalid_argument);
}

TEST(StepEngineTest, WeightedAdmissionPicksHeaviestEarliest) {
  // Four queued jobs, weights 3, 1, 3, 2: the weighted-admission heap must
  // admit heaviest-first with earliest-queued tie-break — job 0 before its
  // equal-weight rival job 2, then 3, then 1 — exactly what the old linear
  // scan (strict > over queue order) produced.
  auto inst = testutil::make_weighted_instance({
      {0.0, 3.0, dag::single_node(4)},
      {0.0, 1.0, dag::single_node(4)},
      {0.0, 3.0, dag::single_node(4)},
      {0.0, 2.0, dag::single_node(4)},
  });
  sim::StepEngineOptions opt;
  opt.machine = {1, 1.0};
  opt.admit_by_weight = true;
  sim::Trace trace;
  opt.trace = &trace;
  const auto res = testutil::run_step_engine_on(inst, opt);
  ASSERT_EQ(trace.admissions().size(), 4u);
  EXPECT_EQ(trace.admissions()[0].job, 0u);
  EXPECT_EQ(trace.admissions()[1].job, 2u);
  EXPECT_EQ(trace.admissions()[2].job, 3u);
  EXPECT_EQ(trace.admissions()[3].job, 1u);
  EXPECT_DOUBLE_EQ(res.completion[0], 4.0);
  EXPECT_DOUBLE_EQ(res.completion[1], 16.0);
}

TEST(StepEngineTest, StepBudgetGuardFires) {
  auto inst = make_instance({{0.0, dag::single_node(100)}});
  sim::StepEngineOptions opt;
  opt.machine = {1, 1.0};
  opt.max_steps = 10;  // far too few
  EXPECT_THROW(testutil::run_step_engine_on(inst, opt), std::logic_error);
}

}  // namespace
}  // namespace pjsched
