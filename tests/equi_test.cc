// Tests for the EQUI (dynamic equipartition) baseline and the event
// engine's processor_cap allocation path.
#include <gtest/gtest.h>

#include "src/core/bounds.h"
#include "src/core/run.h"
#include "src/dag/builders.h"
#include "src/metrics/audit.h"
#include "src/sched/event_schedulers.h"
#include "tests/test_util.h"

namespace pjsched {
namespace {

using testutil::make_instance;

TEST(EquiTest, SplitsProcessorsEvenly) {
  // Two wide jobs on m = 4: each gets 2 processors.  Each job: 8 bodies of
  // work 4 on 2 procs = 16 body time; 1 + 16 + 1 = 18 for both.
  auto inst = make_instance({
      {0.0, dag::parallel_for_dag(8, 4)},
      {0.0, dag::parallel_for_dag(8, 4)},
  });
  sched::EquiScheduler equi;
  const auto res = equi.run(inst, {4, 1.0});
  EXPECT_DOUBLE_EQ(res.completion[0], 18.0);
  EXPECT_DOUBLE_EQ(res.completion[1], 18.0);
}

TEST(EquiTest, LeftoverProcessorsRedistributed) {
  // Job 0 is sequential (uses 1 of its 2-proc share); job 1 is wide and
  // soaks up the leftover: work conservation means 3 procs go to job 1.
  auto inst = make_instance({
      {0.0, dag::serial_chain(12, 1)},       // 12 units, 1 proc
      {0.0, dag::parallel_for_dag(9, 4)},    // bodies: 9*4 = 36 units
  });
  sched::EquiScheduler equi;
  sim::Trace trace;
  const auto res = equi.run(inst, {4, 1.0}, &trace);
  // Job 1: root [0,1); bodies on 3 procs: 3,3,3 rounds = 12 time; join 1.
  EXPECT_DOUBLE_EQ(res.completion[1], 14.0);
  EXPECT_DOUBLE_EQ(res.completion[0], 12.0);
  // And the schedule is legal.
  const auto report =
      metrics::audit_schedule(inst, {4, 1.0}, trace, res.completion);
  EXPECT_TRUE(report.ok) << report.to_string();
}

TEST(EquiTest, SingleJobGetsWholeMachine) {
  auto inst = make_instance({{0.0, dag::parallel_for_dag(4, 6)}});
  sched::EquiScheduler equi;
  sched::FifoScheduler fifo;
  EXPECT_DOUBLE_EQ(equi.run(inst, {4, 1.0}).completion[0],
                   fifo.run(inst, {4, 1.0}).completion[0]);
}

TEST(EquiTest, TradesMaxFlowForMeanFlow) {
  // The classic EQUI-vs-FIFO separation in one deterministic instance:
  // a wide job, then a short job.  FIFO makes the short job wait (good max
  // flow, bad mean); EQUI shares immediately — the short job flies, the
  // wide job lingers (good mean, worse max).  Exact schedules:
  //   FIFO: flow0 = 12, flow1 = 13  -> max 13, mean 12.5
  //   EQUI: flow0 = 16, flow1 = 4   -> max 16, mean 10
  auto inst = make_instance({
      {0.0, dag::parallel_for_dag(2, 10)},
      {2.0, dag::single_node(4)},
  });
  sched::EquiScheduler equi;
  sched::FifoScheduler fifo;
  const auto e = equi.run(inst, {2, 1.0});
  const auto f = fifo.run(inst, {2, 1.0});
  EXPECT_DOUBLE_EQ(f.max_flow, 13.0);
  EXPECT_DOUBLE_EQ(e.max_flow, 16.0);
  EXPECT_DOUBLE_EQ(f.mean_flow, 12.5);
  EXPECT_DOUBLE_EQ(e.mean_flow, 10.0);
  EXPECT_GT(e.max_flow, f.max_flow);
  EXPECT_LT(e.mean_flow, f.mean_flow);
}

TEST(EquiTest, AuditCleanOnRandomInstances) {
  for (std::uint64_t seed : {61u, 62u, 63u}) {
    auto inst = testutil::random_instance(seed, 25, 40.0);
    sim::Trace trace;
    sched::EquiScheduler equi;
    const auto res = equi.run(inst, {3, 1.0}, &trace);
    const auto report =
        metrics::audit_schedule(inst, {3, 1.0}, trace, res.completion);
    EXPECT_TRUE(report.ok) << report.to_string();
    EXPECT_GE(res.max_flow + 1e-9, core::lower_bounds(inst, 1).span);
  }
}

TEST(EquiTest, FactoryAndParser) {
  EXPECT_EQ(core::parse_scheduler("equi").kind, core::SchedulerKind::kEqui);
  EXPECT_EQ(
      testutil::run_name(*core::make_scheduler({core::SchedulerKind::kEqui})),
      "equi");
}

}  // namespace
}  // namespace pjsched
