// Scheduler-level tests for steal-k-first work stealing
// (src/sched/work_stealing.h), including the k-parameterized behaviour the
// paper discusses at the end of Section 4.
#include "src/sched/work_stealing.h"

#include <gtest/gtest.h>

#include "src/dag/builders.h"
#include "src/sched/opt_bound.h"
#include "tests/test_util.h"

namespace pjsched {
namespace {

using testutil::make_instance;

TEST(WorkStealingTest, Names) {
  sched::WorkStealingScheduler admit_first(0), steal16(16), steal4(4);
  EXPECT_EQ(testutil::run_name(admit_first), "admit-first");
  EXPECT_EQ(testutil::run_name(steal16), "steal-16-first");
  EXPECT_EQ(testutil::run_name(steal4), "steal-4-first");
}

TEST(WorkStealingTest, CompletesRandomInstancesForAllK) {
  auto inst = testutil::random_instance(21, 30, 60.0);
  for (unsigned k : {0u, 1u, 4u, 16u}) {
    sched::WorkStealingScheduler ws(k, 5);
    const auto res = ws.run(inst, {4, 1.0});
    for (core::Time c : res.completion) EXPECT_GE(c, 0.0);
    EXPECT_EQ(res.stats.work_steps, inst.total_work());
  }
}

TEST(WorkStealingTest, AdmitFirstAdmitsEagerly) {
  // Backlog of sequential jobs, 4 workers: admit-first spreads jobs across
  // workers immediately (4 admissions in the first step), so 4 equal jobs
  // finish in one job-length.
  std::vector<std::pair<core::Time, dag::Dag>> jobs;
  for (int i = 0; i < 4; ++i) jobs.emplace_back(0.0, dag::single_node(10));
  auto inst = make_instance(std::move(jobs));
  sched::WorkStealingScheduler admit(0, 3);
  const auto res = admit.run(inst, {4, 1.0});
  EXPECT_DOUBLE_EQ(res.max_flow, 10.0);
  EXPECT_EQ(res.stats.admissions, 4u);
}

TEST(WorkStealingTest, LargerKDelaysAdmissionOfBacklog) {
  // Same backlog under steal-k-first with huge k: workers burn k failed
  // steals before each admission, so the last job waits longer.
  std::vector<std::pair<core::Time, dag::Dag>> jobs;
  for (int i = 0; i < 4; ++i) jobs.emplace_back(0.0, dag::single_node(10));
  auto inst = make_instance(std::move(jobs));
  sched::WorkStealingScheduler admit(0, 3);
  sched::WorkStealingScheduler lazy(32, 3);
  const auto a = admit.run(inst, {4, 1.0});
  const auto l = lazy.run(inst, {4, 1.0});
  EXPECT_GT(l.max_flow, a.max_flow);
  EXPECT_GT(l.stats.steal_attempts, 0u);
}

TEST(WorkStealingTest, StealKFirstParallelizesAdmittedJobBeforeAdmitting) {
  // One wide job and one short job in the queue, 4 workers.  Under
  // steal-k-first (k large), free workers steal the wide job's grains
  // instead of admitting the short job, finishing the wide job near-
  // optimally; admit-first sends one worker to the short job immediately.
  auto inst = make_instance({
      {0.0, dag::parallel_for_dag(16, 12)},
      {0.0, dag::single_node(2)},
  });
  sched::WorkStealingScheduler admit(0, 9);
  sched::WorkStealingScheduler steal16(16, 9);
  const auto a = admit.run(inst, {4, 1.0});
  const auto s = steal16.run(inst, {4, 1.0});
  // Both must beat sequential execution of the wide job (16*12+2 = 194).
  EXPECT_LT(a.completion[0], 194.0);
  EXPECT_LT(s.completion[0], 194.0);
  // Admit-first admits the short job early; steal-16-first within a few
  // rounds of failed steals.
  EXPECT_LT(a.completion[1], s.completion[1] + 1e-9);
}

TEST(WorkStealingTest, DeterministicPerSeedAcrossConstructions) {
  auto inst = testutil::random_instance(22, 25, 40.0);
  const auto a = sched::WorkStealingScheduler(4, 77).run(inst, {4, 1.0});
  const auto b = sched::WorkStealingScheduler(4, 77).run(inst, {4, 1.0});
  EXPECT_EQ(a.completion, b.completion);
}

TEST(WorkStealingTest, SpeedAugmentationHelps) {
  auto inst = testutil::random_instance(23, 40, 40.0);
  const auto slow = sched::WorkStealingScheduler(0, 5).run(inst, {4, 1.0});
  const auto fast = sched::WorkStealingScheduler(0, 5).run(inst, {4, 2.0});
  EXPECT_LT(fast.max_flow, slow.max_flow + 1e-9);
}

TEST(WorkStealingTest, NeverBeatsOptBound) {
  auto inst = testutil::random_instance(24, 30, 30.0);
  sched::OptLowerBound opt;
  const double bound = opt.run(inst, {4, 1.0}).max_flow;
  for (unsigned k : {0u, 8u}) {
    const auto res = sched::WorkStealingScheduler(k, 6).run(inst, {4, 1.0});
    EXPECT_GE(res.max_flow + 1e-9, bound);
  }
}

}  // namespace
}  // namespace pjsched
