// Baseline scheduler tests (src/sched/event_schedulers.h): LIFO
// starvation, SJF clairvoyant ordering, round-robin rotation.
#include "src/sched/event_schedulers.h"

#include <gtest/gtest.h>

#include "src/dag/builders.h"
#include "tests/test_util.h"

namespace pjsched {
namespace {

using testutil::make_instance;

TEST(LifoTest, NewestJobFirst) {
  auto inst = make_instance({
      {0.0, dag::single_node(10)},
      {2.0, dag::single_node(3)},
  });
  sched::LifoScheduler lifo;
  const auto res = lifo.run(inst, {1, 1.0});
  // Job 1 preempts on arrival.
  EXPECT_DOUBLE_EQ(res.completion[1], 5.0);
  EXPECT_DOUBLE_EQ(res.completion[0], 13.0);
}

TEST(LifoTest, StarvesOldJobsUnderStream) {
  // A steady stream of short jobs starves the first long job; FIFO does
  // not.  This is why max flow time wants FIFO ordering.
  std::vector<std::pair<core::Time, dag::Dag>> jobs;
  jobs.emplace_back(0.0, dag::single_node(5));
  for (int i = 0; i < 20; ++i)
    jobs.emplace_back(1.0 + i, dag::single_node(1));
  auto inst = make_instance(std::move(jobs));

  sched::LifoScheduler lifo;
  sched::FifoScheduler fifo;
  const auto l = lifo.run(inst, {1, 1.0});
  const auto f = fifo.run(inst, {1, 1.0});
  EXPECT_GT(l.max_flow, f.max_flow);
  EXPECT_GT(l.job_flow[0], 20.0);  // the first job starves behind the stream
}

TEST(SjfTest, ShortestRemainingWorkFirst) {
  auto inst = make_instance({
      {0.0, dag::single_node(10)},
      {0.0, dag::single_node(2)},
      {0.0, dag::single_node(5)},
  });
  sched::SjfScheduler sjf;
  const auto res = sjf.run(inst, {1, 1.0});
  EXPECT_DOUBLE_EQ(res.completion[1], 2.0);
  EXPECT_DOUBLE_EQ(res.completion[2], 7.0);
  EXPECT_DOUBLE_EQ(res.completion[0], 17.0);
}

TEST(SjfTest, UsesRemainingNotTotalWork) {
  // Job 0 (6 units) runs alone until job 1 (4 units) arrives at t=3 with
  // remaining(0) = 3 < 4, so job 0 keeps the processor (SRPT behaviour).
  auto inst = make_instance({
      {0.0, dag::single_node(6)},
      {3.0, dag::single_node(4)},
  });
  sched::SjfScheduler sjf;
  const auto res = sjf.run(inst, {1, 1.0});
  EXPECT_DOUBLE_EQ(res.completion[0], 6.0);
  EXPECT_DOUBLE_EQ(res.completion[1], 10.0);
}

TEST(RoundRobinTest, AllJobsComplete) {
  auto inst = testutil::random_instance(31, 25, 30.0);
  sched::RoundRobinScheduler rr;
  const auto res = rr.run(inst, {2, 1.0});
  for (core::Time c : res.completion) EXPECT_GE(c, 0.0);
  EXPECT_EQ(res.scheduler_name, "round-robin");
}

TEST(RoundRobinTest, SharesBetweenTwoEqualJobs) {
  // Two equal sequential jobs, one processor: round robin alternates, so
  // both finish close together (within one job's length), unlike FIFO.
  auto inst = make_instance({
      {0.0, dag::single_node(10)},
      {0.0, dag::single_node(10)},
  });
  sched::RoundRobinScheduler rr;
  const auto res = rr.run(inst, {1, 1.0});
  EXPECT_DOUBLE_EQ(std::max(res.completion[0], res.completion[1]), 20.0);
}

TEST(BaselineNamesTest, ReportedNames) {
  auto inst = make_instance({{0.0, dag::single_node(1)}});
  EXPECT_EQ(sched::LifoScheduler().run(inst, {1, 1.0}).scheduler_name, "lifo");
  EXPECT_EQ(sched::SjfScheduler().run(inst, {1, 1.0}).scheduler_name, "sjf");
}

}  // namespace
}  // namespace pjsched
