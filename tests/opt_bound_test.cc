// Tests for the simulated-OPT lower bound (src/sched/opt_bound.h):
// the exact FIFO-on-one-machine recurrence and the lower-bound property
// against every real scheduler.
#include "src/sched/opt_bound.h"

#include <gtest/gtest.h>

#include "src/dag/builders.h"
#include "src/sched/baselines.h"
#include "src/sched/bwf.h"
#include "src/sched/fifo.h"
#include "src/sched/work_stealing.h"
#include "tests/test_util.h"

namespace pjsched {
namespace {

using testutil::make_instance;

TEST(OptBoundTest, RecurrenceExact) {
  // m = 2: job lengths W/m = {3, 1, 2}; arrivals {0, 1, 9}.
  auto inst = make_instance({
      {0.0, dag::single_node(6)},
      {1.0, dag::single_node(2)},
      {9.0, dag::single_node(4)},
  });
  sched::OptLowerBound opt;
  const auto res = opt.run(inst, {2, 1.0});
  EXPECT_DOUBLE_EQ(res.completion[0], 3.0);   // 0 + 6/2
  EXPECT_DOUBLE_EQ(res.completion[1], 4.0);   // max(1,3) + 1
  EXPECT_DOUBLE_EQ(res.completion[2], 11.0);  // max(9,4) + 2
  EXPECT_DOUBLE_EQ(res.max_flow, 3.0);
}

TEST(OptBoundTest, IgnoresAlgorithmSpeedByDefault) {
  auto inst = make_instance({{0.0, dag::single_node(8)}});
  sched::OptLowerBound opt;
  // Machine speed 2 must not shrink the adversary's schedule.
  EXPECT_DOUBLE_EQ(opt.run(inst, {2, 2.0}).max_flow, 4.0);
}

TEST(OptBoundTest, LowerBoundsEverySchedulerAtSpeedOne) {
  for (std::uint64_t seed : {3u, 4u, 5u}) {
    auto inst = testutil::random_instance(seed, 35, 50.0);
    const core::MachineConfig machine{3, 1.0};
    sched::OptLowerBound opt;
    const double bound = opt.run(inst, machine).max_flow;

    sched::FifoScheduler fifo;
    sched::BwfScheduler bwf;
    sched::LifoScheduler lifo;
    sched::SjfScheduler sjf;
    sched::RoundRobinScheduler rr;
    sched::WorkStealingScheduler admit(0, seed);
    sched::WorkStealingScheduler steal16(16, seed);

    EXPECT_GE(fifo.run(inst, machine).max_flow + 1e-9, bound);
    EXPECT_GE(bwf.run(inst, machine).max_flow + 1e-9, bound);
    EXPECT_GE(lifo.run(inst, machine).max_flow + 1e-9, bound);
    EXPECT_GE(sjf.run(inst, machine).max_flow + 1e-9, bound);
    EXPECT_GE(rr.run(inst, machine).max_flow + 1e-9, bound);
    EXPECT_GE(admit.run(inst, machine).max_flow + 1e-9, bound);
    EXPECT_GE(steal16.run(inst, machine).max_flow + 1e-9, bound);
  }
}

TEST(OptBoundTest, BacklogAccumulates) {
  // Jobs arrive faster than the relaxed machine drains them.
  std::vector<std::pair<core::Time, dag::Dag>> jobs;
  for (int i = 0; i < 10; ++i)
    jobs.emplace_back(static_cast<core::Time>(i), dag::single_node(4));
  auto inst = make_instance(std::move(jobs));
  sched::OptLowerBound opt;
  const auto res = opt.run(inst, {2, 1.0});
  // Each job adds 2 units of length but arrivals come every 1: queue grows
  // by 1 per job; last job's flow = 10*2 - 9 = 11.
  EXPECT_DOUBLE_EQ(res.completion[9], 20.0);
  EXPECT_DOUBLE_EQ(res.max_flow, 11.0);
}

TEST(OptBoundTest, ZeroProcessorsRejected) {
  auto inst = make_instance({{0.0, dag::single_node(1)}});
  sched::OptLowerBound opt;
  EXPECT_THROW(opt.run(inst, {0, 1.0}), std::invalid_argument);
}

}  // namespace
}  // namespace pjsched
