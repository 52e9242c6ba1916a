// FIFO scheduler behaviour tests (paper Section 3), including an empirical
// shape check of Theorem 3.1 on adversarial backlog instances.
#include "src/sched/event_schedulers.h"

#include <gtest/gtest.h>

#include "src/core/bounds.h"
#include "src/dag/builders.h"
#include "src/sched/opt_bound.h"
#include "tests/test_util.h"

namespace pjsched {
namespace {

using testutil::make_instance;

TEST(FifoTest, Name) {
  sched::FifoScheduler fifo;
  EXPECT_EQ(testutil::run_name(fifo), "fifo");
}

TEST(FifoTest, EarlierJobGetsProcessorsFirst) {
  // Both jobs want 2 processors; only 2 exist.  FIFO runs job 0's grains
  // to completion before job 1's, even though job 1 is shorter.
  auto inst = make_instance({
      {0.0, dag::parallel_for_dag(2, 10)},
      {1.0, dag::parallel_for_dag(2, 1)},
  });
  sched::FifoScheduler fifo;
  const auto res = fifo.run(inst, {2, 1.0});
  // Job 0: 1 + 10 + 1 = 12 (never short of processors).
  EXPECT_DOUBLE_EQ(res.completion[0], 12.0);
  // Job 1 arrives at t=1, exactly when job 0's grains claim both
  // processors; its root waits until t=11, then root/bodies/join take
  // [11,12), [12,13), [13,14).
  EXPECT_DOUBLE_EQ(res.completion[1], 14.0);
}

TEST(FifoTest, NoStarvationUnderBacklog) {
  // 8 equal jobs at time 0 on m=2: FIFO drains them in arrival order.
  std::vector<std::pair<core::Time, dag::Dag>> jobs;
  for (int i = 0; i < 8; ++i) jobs.emplace_back(0.0, dag::single_node(4));
  auto inst = make_instance(std::move(jobs));
  sched::FifoScheduler fifo;
  const auto res = fifo.run(inst, {2, 1.0});
  // Two jobs finish every 4 units.
  EXPECT_DOUBLE_EQ(res.completion[0], 4.0);
  EXPECT_DOUBLE_EQ(res.completion[1], 4.0);
  EXPECT_DOUBLE_EQ(res.completion[6], 16.0);
  EXPECT_DOUBLE_EQ(res.completion[7], 16.0);
  EXPECT_DOUBLE_EQ(res.max_flow, 16.0);
}

TEST(FifoTest, MaxFlowAtLeastOptBound) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    auto inst = testutil::random_instance(seed, 40, 60.0);
    sched::FifoScheduler fifo;
    sched::OptLowerBound opt;
    const auto f = fifo.run(inst, {3, 1.0});
    const auto o = opt.run(inst, {3, 1.0});
    EXPECT_GE(f.max_flow + 1e-9, o.max_flow);
    EXPECT_GE(f.max_flow + 1e-9, core::lower_bounds(inst, 3).combined);
  }
}

// Empirical Theorem 3.1 shape: with (1+eps) speed, FIFO's max flow divided
// by the OPT lower bound stays modest as backlog grows, and extra speed
// only helps.  (The theorem guarantees ratio <= 3/eps against true OPT; we
// check against the lower bound, which can only make the ratio larger, on
// instances where the bound is tight — fully parallelizable jobs.)
TEST(FifoTest, SpeedAugmentationShrinksBacklogRatio) {
  // Overloaded burst of wide jobs, then silence: at speed 1 FIFO merely
  // keeps pace; with 1.5x speed it catches up.
  std::vector<std::pair<core::Time, dag::Dag>> jobs;
  for (int i = 0; i < 30; ++i)
    jobs.emplace_back(static_cast<core::Time>(i),
                      dag::parallel_for_dag(8, 8));
  auto inst = make_instance(std::move(jobs));
  sched::FifoScheduler fifo;
  const auto slow = fifo.run(inst, {4, 1.0});
  const auto fast = fifo.run(inst, {4, 1.5});
  EXPECT_LT(fast.max_flow, slow.max_flow);

  sched::OptLowerBound opt;
  const auto o = opt.run(inst, {4, 1.0});
  // With 1.5 speed (eps = 0.5) the theorem's 3/eps = 6; this instance is
  // far from the worst case, so expect a comfortably smaller ratio.
  EXPECT_LT(fast.max_flow / o.max_flow, 6.0);
}

TEST(FifoTest, HighParallelismJobDoesNotBlockQueue) {
  // A wide job takes all processors briefly; the following narrow job's
  // flow time stays bounded by FIFO's drain order.
  auto inst = make_instance({
      {0.0, dag::parallel_for_dag(16, 4)},
      {1.0, dag::single_node(2)},
  });
  sched::FifoScheduler fifo;
  const auto res = fifo.run(inst, {4, 1.0});
  EXPECT_DOUBLE_EQ(res.completion[0], 1.0 + 16.0 / 4.0 * 4.0 + 1.0);
  // Job 1 waits for a free processor, then runs 2 units.
  EXPECT_GT(res.completion[1], 2.0);
  EXPECT_LE(res.completion[1], res.completion[0] + 3.0);
}

}  // namespace
}  // namespace pjsched
