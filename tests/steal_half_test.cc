// Tests for the steal-half extension: a successful steal migrates half the
// victim's deque (oldest half) instead of one node.
#include <gtest/gtest.h>

#include "src/core/bounds.h"
#include "src/dag/builders.h"
#include "src/metrics/audit.h"
#include "src/sched/work_stealing.h"
#include "tests/test_util.h"

namespace pjsched {
namespace {

using testutil::make_instance;

TEST(StealHalfTest, NameSuffix) {
  sched::WorkStealingScheduler half(0, 1, false, true);
  sched::WorkStealingScheduler bwf_half(8, 1, true, true);
  EXPECT_EQ(testutil::run_name(half), "admit-first-half");
  EXPECT_EQ(testutil::run_name(bwf_half), "steal-8-first-bwf-half");
}

TEST(StealHalfTest, AuditCleanAndWorkConserving) {
  auto inst = testutil::random_instance(81, 25, 40.0);
  sim::Trace trace;
  sched::WorkStealingScheduler ws(0, 7, false, true);
  const auto res = ws.run(inst, {4, 1.0}, &trace);
  const auto report =
      metrics::audit_schedule(inst, {4, 1.0}, trace, res.completion);
  ASSERT_TRUE(report.ok) << report.to_string();
  EXPECT_EQ(res.scheduler_name, "admit-first-half");
  EXPECT_EQ(res.stats.work_steps, inst.total_work());
  EXPECT_GE(res.max_flow + 1e-9, core::lower_bounds(inst, 4).opt_sim);
}

TEST(StealHalfTest, FewerStealAttemptsOnWideJob) {
  // A single wide job: distributing 63 grains one steal at a time needs
  // far more successful steals than batch-stealing half the deque.
  auto inst = make_instance({{0.0, dag::parallel_for_dag(63, 20)}});
  sched::WorkStealingScheduler one(0, 5, false, false);
  sched::WorkStealingScheduler half(0, 5, false, true);
  const auto r1 = one.run(inst, {8, 1.0});
  const auto rh = half.run(inst, {8, 1.0});
  EXPECT_LT(rh.stats.successful_steals, r1.stats.successful_steals);
  // Both remain near-greedy: completion within 2x of W/m + P.
  const auto& g = inst.jobs[0].graph;
  const double brent =
      static_cast<double>(g.total_work()) / 8.0 +
      static_cast<double>(g.critical_path());
  EXPECT_LT(r1.completion[0], 2.0 * brent);
  EXPECT_LT(rh.completion[0], 2.0 * brent);
}

TEST(StealHalfTest, SingleNodeDequesBehaveIdentically) {
  // Chains never expose more than zero stealable nodes, so steal-half and
  // steal-one coincide exactly (same rng consumption).
  auto inst = make_instance({
      {0.0, dag::serial_chain(10, 2)},
      {1.0, dag::serial_chain(10, 2)},
  });
  const auto a =
      sched::WorkStealingScheduler(0, 9, false, false).run(inst, {2, 1.0});
  const auto b =
      sched::WorkStealingScheduler(0, 9, false, true).run(inst, {2, 1.0});
  EXPECT_EQ(a.completion, b.completion);
}

TEST(StealHalfTest, DeterministicPerSeed) {
  auto inst = testutil::random_instance(82, 20, 30.0);
  const auto a =
      sched::WorkStealingScheduler(4, 11, false, true).run(inst, {4, 1.0});
  const auto b =
      sched::WorkStealingScheduler(4, 11, false, true).run(inst, {4, 1.0});
  EXPECT_EQ(a.completion, b.completion);
}

}  // namespace
}  // namespace pjsched
