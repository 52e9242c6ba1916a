// Biggest-Weight-First tests (paper Section 7): weight-ordered allocation,
// heavy jobs preempting light ones, and weighted-max-flow behaviour vs FIFO.
#include "src/sched/event_schedulers.h"

#include <gtest/gtest.h>

#include "src/core/bounds.h"
#include "src/dag/builders.h"
#include "tests/test_util.h"

namespace pjsched {
namespace {

using testutil::make_weighted_instance;

TEST(BwfTest, Name) {
  sched::BwfScheduler bwf;
  EXPECT_EQ(testutil::run_name(bwf), "bwf");
}

TEST(BwfTest, HeavierJobRunsFirst) {
  // Same arrival, one processor: the weight-8 job runs before weight-1.
  auto inst = make_weighted_instance({
      {0.0, 1.0, dag::single_node(5)},
      {0.0, 8.0, dag::single_node(5)},
  });
  sched::BwfScheduler bwf;
  const auto res = bwf.run(inst, {1, 1.0});
  EXPECT_DOUBLE_EQ(res.completion[1], 5.0);
  EXPECT_DOUBLE_EQ(res.completion[0], 10.0);
  EXPECT_DOUBLE_EQ(res.max_weighted_flow, 40.0);  // 8 * 5
}

TEST(BwfTest, ArrivingHeavyJobPreemptsLight) {
  auto inst = make_weighted_instance({
      {0.0, 1.0, dag::single_node(10)},
      {2.0, 4.0, dag::single_node(3)},
  });
  sched::BwfScheduler bwf;
  const auto res = bwf.run(inst, {1, 1.0});
  // Light runs [0,2), heavy preempts and runs [2,5), light resumes [5,13).
  EXPECT_DOUBLE_EQ(res.completion[1], 5.0);
  EXPECT_DOUBLE_EQ(res.completion[0], 13.0);
}

TEST(BwfTest, EqualWeightsTieBreakByArrival) {
  auto inst = make_weighted_instance({
      {1.0, 2.0, dag::single_node(4)},
      {0.0, 2.0, dag::single_node(4)},
  });
  sched::BwfScheduler bwf;
  const auto res = bwf.run(inst, {1, 1.0});
  EXPECT_DOUBLE_EQ(res.completion[1], 4.0);  // arrived first
  EXPECT_DOUBLE_EQ(res.completion[0], 8.0);
}

TEST(BwfTest, UnweightedBwfEqualsFifo) {
  // With all weights 1, BWF's order is FIFO's order.
  auto inst = testutil::random_instance(77, 30, 50.0);
  sched::BwfScheduler bwf;
  sched::FifoScheduler fifo;
  const auto b = bwf.run(inst, {3, 1.0});
  const auto f = fifo.run(inst, {3, 1.0});
  ASSERT_EQ(b.completion.size(), f.completion.size());
  for (std::size_t i = 0; i < b.completion.size(); ++i)
    EXPECT_DOUBLE_EQ(b.completion[i], f.completion[i]);
}

TEST(BwfTest, BeatsFifoOnWeightedObjective) {
  // A stream of light jobs followed by a heavy one: FIFO makes the heavy
  // job wait behind the backlog; BWF does not.
  std::vector<std::tuple<core::Time, double, dag::Dag>> jobs;
  for (int i = 0; i < 10; ++i)
    jobs.emplace_back(static_cast<core::Time>(i) * 0.1, 1.0,
                      dag::single_node(10));
  jobs.emplace_back(1.0, 100.0, dag::single_node(10));
  auto inst = make_weighted_instance(std::move(jobs));

  sched::BwfScheduler bwf;
  sched::FifoScheduler fifo;
  const auto b = bwf.run(inst, {1, 1.0});
  const auto f = fifo.run(inst, {1, 1.0});
  EXPECT_LT(b.max_weighted_flow, f.max_weighted_flow);
  // BWF runs the heavy job the moment it arrives.
  EXPECT_DOUBLE_EQ(b.completion[10], 11.0);
}

TEST(BwfTest, WeightedFlowAtLeastWeightedBounds) {
  for (std::uint64_t seed : {11u, 12u}) {
    sim::Rng wrng(seed);
    auto inst = testutil::random_instance(seed, 25, 40.0);
    for (auto& job : inst.jobs)
      job.weight = static_cast<double>(1 + wrng.uniform_int(8));
    sched::BwfScheduler bwf;
    const auto res = bwf.run(inst, {2, 1.0});
    EXPECT_GE(res.max_weighted_flow + 1e-6,
              core::lower_bounds(inst, 2).weighted_combined);
  }
}

TEST(BwfTest, LightJobsUseLeftoverProcessors) {
  // Heavy chain uses 1 processor; light wide job runs on the other.
  auto inst = make_weighted_instance({
      {0.0, 10.0, dag::serial_chain(6, 2)},
      {0.0, 1.0, dag::single_node(4)},
  });
  sched::BwfScheduler bwf;
  const auto res = bwf.run(inst, {2, 1.0});
  EXPECT_DOUBLE_EQ(res.completion[0], 12.0);
  EXPECT_DOUBLE_EQ(res.completion[1], 4.0);  // ran concurrently
}

}  // namespace
}  // namespace pjsched
