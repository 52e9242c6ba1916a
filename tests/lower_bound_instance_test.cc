// Tests for the Section-5 adversarial instance
// (src/workload/lower_bound_instance.h) and its key property: OPT (here the
// centralized FIFO on m processors) finishes every job in 2 time units,
// while randomized work stealing suffers flow growing with m.
#include "src/workload/lower_bound_instance.h"

#include <gtest/gtest.h>

#include "src/sched/event_schedulers.h"
#include "src/sched/work_stealing.h"

namespace pjsched {
namespace {

TEST(LowerBoundInstanceTest, Structure) {
  workload::LowerBoundConfig cfg;
  cfg.m = 40;
  cfg.num_jobs = 10;
  const auto inst = workload::make_lower_bound_instance(cfg);
  ASSERT_EQ(inst.size(), 10u);
  for (std::size_t j = 0; j < inst.size(); ++j) {
    EXPECT_DOUBLE_EQ(inst.jobs[j].arrival, 80.0 * static_cast<double>(j));
    EXPECT_EQ(inst.jobs[j].graph.critical_path(), 2u);
    EXPECT_EQ(inst.jobs[j].graph.total_work(), 5u);  // root + m/10 children
  }
}

TEST(LowerBoundInstanceTest, DefaultsChildrenToTenthOfM) {
  workload::LowerBoundConfig cfg;
  cfg.m = 7;  // m/10 rounds to 0 -> clamped to 1
  cfg.num_jobs = 1;
  const auto inst = workload::make_lower_bound_instance(cfg);
  EXPECT_EQ(inst.jobs[0].graph.total_work(), 2u);
}

TEST(LowerBoundInstanceTest, ExplicitChildrenRespected) {
  workload::LowerBoundConfig cfg;
  cfg.m = 16;
  cfg.children = 8;
  cfg.num_jobs = 1;
  const auto inst = workload::make_lower_bound_instance(cfg);
  EXPECT_EQ(inst.jobs[0].graph.total_work(), 9u);
  cfg.children = 20;  // > m: the OPT = 2 argument breaks
  EXPECT_THROW(workload::make_lower_bound_instance(cfg),
               std::invalid_argument);
}

TEST(LowerBoundInstanceTest, OptFinishesEachJobInTwo) {
  workload::LowerBoundConfig cfg;
  cfg.m = 20;
  cfg.num_jobs = 25;
  const auto inst = workload::make_lower_bound_instance(cfg);
  sched::FifoScheduler fifo;
  const auto res = fifo.run(inst, {cfg.m, 1.0});
  // Jobs never overlap (spacing 2m >> 2), so FIFO == OPT here.
  EXPECT_DOUBLE_EQ(res.max_flow, workload::lower_bound_opt_flow());
}

TEST(LowerBoundInstanceTest, WorkStealingFlowGrowsWithM) {
  // The Omega(log n) phenomenon: some job runs (nearly) sequentially under
  // randomized stealing, so max flow grows with m (= log of the proof's n)
  // while OPT stays 2.  Use admit-first at speed 1.
  double prev_flow = 0.0;
  for (unsigned m : {20u, 80u}) {
    workload::LowerBoundConfig cfg;
    cfg.m = m;
    cfg.num_jobs = 400;
    const auto inst = workload::make_lower_bound_instance(cfg);
    sched::WorkStealingScheduler ws(0, 12345);
    const auto res = ws.run(inst, {m, 1.0});
    EXPECT_GT(res.max_flow, workload::lower_bound_opt_flow());
    EXPECT_GT(res.max_flow, prev_flow);
    prev_flow = res.max_flow;
  }
}

TEST(LowerBoundInstanceTest, BadConfigRejected) {
  workload::LowerBoundConfig cfg;
  cfg.m = 0;
  EXPECT_THROW(workload::make_lower_bound_instance(cfg),
               std::invalid_argument);
  cfg = {};
  cfg.num_jobs = 0;
  EXPECT_THROW(workload::make_lower_bound_instance(cfg),
               std::invalid_argument);
}

}  // namespace
}  // namespace pjsched
