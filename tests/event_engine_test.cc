// Tests for the centralized event-driven engine (src/sim/event_engine.h),
// using the FIFO policy for exact hand-computed schedules and the audit
// layer for machine-model compliance.
#include "src/sim/event_engine.h"

#include <gtest/gtest.h>

#include <limits>

#include "src/dag/builders.h"
#include "src/metrics/audit.h"
#include "src/sched/event_schedulers.h"
#include "tests/test_util.h"

namespace pjsched {
namespace {

using testutil::make_instance;

core::StreamRunResult run_fifo(const core::Instance& inst, unsigned m,
                               double speed = 1.0,
                               sim::Trace* trace = nullptr) {
  sched::FifoScheduler fifo;
  return fifo.run(inst, {m, speed}, trace);
}

TEST(EventEngineTest, SingleSequentialJobExactTime) {
  auto inst = make_instance({{0.0, dag::serial_chain(3, 2)}});
  const auto res = run_fifo(inst, 4);
  EXPECT_DOUBLE_EQ(res.completion[0], 6.0);
  EXPECT_DOUBLE_EQ(res.max_flow, 6.0);
  // 3 processors idle for the whole 6 time units.
  EXPECT_DOUBLE_EQ(res.stats.idle_processor_time, 18.0);
}

TEST(EventEngineTest, SpeedScalesExecutionExactly) {
  auto inst = make_instance({{0.0, dag::serial_chain(3, 2)}});
  const auto res = run_fifo(inst, 1, 2.0);
  EXPECT_DOUBLE_EQ(res.completion[0], 3.0);
}

TEST(EventEngineTest, ParallelForUsesAllProcessors) {
  // root(1) -> 4 bodies(5) -> join(1); on m = 4 at speed 1: 1 + 5 + 1 = 7.
  auto inst = make_instance({{0.0, dag::parallel_for_dag(4, 5)}});
  const auto res = run_fifo(inst, 4);
  EXPECT_DOUBLE_EQ(res.completion[0], 7.0);
}

TEST(EventEngineTest, ParallelForLimitedProcessors) {
  // 4 bodies of 5 on m = 2: bodies take ceil(4/2)*5 = 10; total 1+10+1 = 12.
  auto inst = make_instance({{0.0, dag::parallel_for_dag(4, 5)}});
  const auto res = run_fifo(inst, 2);
  EXPECT_DOUBLE_EQ(res.completion[0], 12.0);
}

TEST(EventEngineTest, LateArrivalWaits) {
  auto inst = make_instance({{10.0, dag::single_node(4)}});
  const auto res = run_fifo(inst, 1);
  EXPECT_DOUBLE_EQ(res.completion[0], 14.0);
  EXPECT_DOUBLE_EQ(res.job_flow[0], 4.0);
  // The machine idles the first 10 units.
  EXPECT_DOUBLE_EQ(res.stats.idle_processor_time, 10.0);
}

TEST(EventEngineTest, FifoOrdersBacklogByArrival) {
  // Two unit-parallelism jobs on one processor; the earlier job runs first.
  auto inst = make_instance({
      {0.0, dag::single_node(10)},
      {1.0, dag::single_node(2)},
  });
  const auto res = run_fifo(inst, 1);
  EXPECT_DOUBLE_EQ(res.completion[0], 10.0);
  EXPECT_DOUBLE_EQ(res.completion[1], 12.0);
  EXPECT_DOUBLE_EQ(res.max_flow, 11.0);  // job 1 waits behind job 0
  EXPECT_EQ(res.argmax_flow, 1u);
}

TEST(EventEngineTest, FifoGivesLeftoverProcessorsToLaterJobs) {
  // Job 0 can use only 1 processor (chain); job 1's grains get the rest.
  auto inst = make_instance({
      {0.0, dag::serial_chain(4, 4)},       // runs 16 units on one proc
      {0.0, dag::parallel_for_dag(3, 4)},   // 1 + 4 + 1 = 6 on 3 procs
  });
  const auto res = run_fifo(inst, 4);
  EXPECT_DOUBLE_EQ(res.completion[0], 16.0);
  EXPECT_DOUBLE_EQ(res.completion[1], 6.0);
}

TEST(EventEngineTest, FifoPreemptsLaterJobWhenEarlierNeedsProcessors) {
  // Job 0: root(1) then 4 grains(4).  Job 1 arrives first... rather:
  // Job 0 arrives at t=0 as a star that widens at t=1 to 4 ready nodes on
  // m=4; job 1 (arrived t=0.5) must wait until job 0 leaves room.
  dag::Dag wide = dag::parallel_for_dag(4, 4);  // needs all 4 procs from t=1
  auto inst = make_instance({
      {0.0, std::move(wide)},
      {0.5, dag::single_node(8)},
  });
  const auto res = run_fifo(inst, 4);
  // Job 0: 1 + 4 + 1 = 6.  Job 1 runs in [0.5, 1) on a spare proc (0.5
  // units), is preempted during [1, 5) while job 0's grains occupy all
  // processors, resumes at 5 alongside job 0's join node.
  EXPECT_DOUBLE_EQ(res.completion[0], 6.0);
  EXPECT_DOUBLE_EQ(res.completion[1], 12.5);
}

TEST(EventEngineTest, TraceAuditsCleanOnHandInstance) {
  auto inst = make_instance({
      {0.0, dag::parallel_for_dag(3, 4)},
      {2.0, dag::serial_chain(2, 3)},
      {5.0, dag::single_node(1)},
  });
  sim::Trace trace;
  const auto res = run_fifo(inst, 2, 1.0, &trace);
  const auto report =
      metrics::audit_schedule(inst, {2, 1.0}, trace, res.completion);
  EXPECT_TRUE(report.ok) << report.to_string();
}

TEST(EventEngineTest, TraceAuditsCleanWithSpeed) {
  auto inst = make_instance({
      {0.0, dag::parallel_for_dag(5, 3)},
      {1.0, dag::serial_chain(3, 2)},
  });
  sim::Trace trace;
  const auto res = run_fifo(inst, 3, 1.5, &trace);
  const auto report =
      metrics::audit_schedule(inst, {3, 1.5}, trace, res.completion);
  EXPECT_TRUE(report.ok) << report.to_string();
}

TEST(EventEngineTest, InvalidArgumentsRejected) {
  auto inst = make_instance({{0.0, dag::single_node(1)}});
  sched::FifoScheduler fifo;
  EXPECT_THROW(fifo.run(inst, {0, 1.0}), std::invalid_argument);
  EXPECT_THROW(fifo.run(inst, {1, 0.0}), std::invalid_argument);
  core::Instance empty;
  EXPECT_THROW(fifo.run(empty, {1, 1.0}), std::invalid_argument);
}

TEST(EventEngineTest, NonFiniteSpeedRejected) {
  auto inst = make_instance({{0.0, dag::single_node(1)}});
  sched::FifoScheduler fifo;
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(fifo.run(inst, {1, inf}), std::invalid_argument);
  EXPECT_THROW(fifo.run(inst, {1, 1.0, {{1.0, 1, inf}}}),
               std::invalid_argument);
}

TEST(EventEngineTest, ManyJobsAllComplete) {
  auto inst = testutil::random_instance(1234, 50, 100.0);
  const auto res = run_fifo(inst, 3);
  for (core::Time c : res.completion) EXPECT_GE(c, 0.0);
  EXPECT_GT(res.makespan, 0.0);
  EXPECT_GT(res.stats.decision_points, 0u);
}

TEST(EventEngineTest, SimultaneousArrivalsTieBrokenByIndex) {
  auto inst = make_instance({
      {0.0, dag::single_node(3)},
      {0.0, dag::single_node(3)},
  });
  const auto res = run_fifo(inst, 1);
  EXPECT_DOUBLE_EQ(res.completion[0], 3.0);
  EXPECT_DOUBLE_EQ(res.completion[1], 6.0);
}

TEST(EventEngineTest, AvailableSetOrderIsNotSemantic) {
  // Completion handling compacts the available set with swap-and-pop, so
  // after the first completion the set's order differs from insertion
  // order.  Nothing may depend on that order: with more available nodes
  // than processors and staggered node sizes (uneven completions reorder
  // the set repeatedly), the schedule must stay precedence- and
  // machine-valid, work-conserving, and end at the work-limited makespan.
  auto inst = make_instance({{0.0, dag::parallel_for_dag_fn(
                                       6, [](std::size_t g) {
                                         return static_cast<dag::Work>(
                                             2 + 3 * g);
                                       })}});
  sim::Trace trace;
  sched::FifoScheduler fifo;
  const auto res = fifo.run(inst, {2, 1.0}, &trace);
  const auto report =
      metrics::audit_schedule(inst, {2, 1.0}, trace, res.completion);
  EXPECT_TRUE(report.ok) << report.to_string();
  // Work = 1 (root) + 57 (bodies) + 1 (join); the root and join are
  // sequential bottlenecks and the bodies need >= 57/2 time on 2
  // processors, so no completion order can beat 1 + 28.5 + 1.
  EXPECT_GE(res.completion[0], 1.0 + 57.0 / 2.0 + 1.0 - 1e-9);
  // Work conservation: total busy processor-time equals total work.
  double busy = 0.0;
  for (const auto& iv : trace.intervals()) busy += iv.end - iv.start;
  EXPECT_NEAR(busy, 59.0, 1e-6);
}

}  // namespace
}  // namespace pjsched
