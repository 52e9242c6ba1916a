// Tests for the lower-bound calculators (src/core/bounds.h).
#include "src/core/bounds.h"

#include <gtest/gtest.h>

#include "src/dag/builders.h"
#include "src/sched/opt_bound.h"
#include "tests/test_util.h"

namespace pjsched {
namespace {

using testutil::make_instance;
using testutil::make_weighted_instance;

TEST(BoundsTest, SpanBound) {
  auto inst = make_instance({
      {0.0, dag::serial_chain(4, 3)},   // P = 12
      {1.0, dag::parallel_for_dag(8, 5)},  // P = 7
  });
  EXPECT_DOUBLE_EQ(core::lower_bounds(inst, 1).span, 12.0);
}

TEST(BoundsTest, WorkBound) {
  auto inst = make_instance({
      {0.0, dag::single_node(40)},
      {0.0, dag::single_node(12)},
  });
  EXPECT_DOUBLE_EQ(core::lower_bounds(inst, 4).work, 10.0);
}

TEST(BoundsTest, OptSimBoundMatchesScheduler) {
  for (std::uint64_t seed : {41u, 42u}) {
    auto inst = testutil::random_instance(seed, 30, 30.0);
    sched::OptLowerBound opt;
    EXPECT_DOUBLE_EQ(core::lower_bounds(inst, 3).opt_sim,
                     opt.run(inst, {3, 1.0}).max_flow);
  }
}

TEST(BoundsTest, OptSimDominatesWorkBound) {
  auto inst = testutil::random_instance(43, 20, 25.0);
  const core::LowerBoundSet b = core::lower_bounds(inst, 2);
  EXPECT_GE(b.opt_sim + 1e-12, b.work);
}

TEST(BoundsTest, CombinedIsMax) {
  auto inst = make_instance({
      {0.0, dag::serial_chain(10, 10)},  // P = 100 dominates
      {0.0, dag::single_node(8)},
  });
  const core::LowerBoundSet b = core::lower_bounds(inst, 4);
  EXPECT_DOUBLE_EQ(b.combined, 100.0);
  EXPECT_GE(b.combined, b.span);
  EXPECT_GE(b.combined, b.work);
  EXPECT_GE(b.combined, b.opt_sim);
}

TEST(BoundsTest, WeightedBounds) {
  auto inst = make_weighted_instance({
      {0.0, 2.0, dag::serial_chain(3, 4)},  // w*P = 24, w*W = 24
      {0.0, 5.0, dag::single_node(6)},      // w*P = 30, w*W/m
  });
  const core::LowerBoundSet b = core::lower_bounds(inst, 3);
  EXPECT_DOUBLE_EQ(b.weighted_span, 30.0);
  EXPECT_DOUBLE_EQ(b.weighted_work, 10.0);
  EXPECT_DOUBLE_EQ(b.weighted_combined, 30.0);
}

TEST(BoundsTest, UnweightedEqualsWeightedWhenAllOnes) {
  auto inst = testutil::random_instance(44, 15, 20.0);
  const core::LowerBoundSet b = core::lower_bounds(inst, 2);
  EXPECT_DOUBLE_EQ(b.span, b.weighted_span);
  EXPECT_DOUBLE_EQ(b.work, b.weighted_work);
}

TEST(BoundsTest, ZeroProcessorsRejected) {
  auto inst = make_instance({{0.0, dag::single_node(1)}});
  EXPECT_THROW(core::lower_bounds(inst, 0), std::invalid_argument);
}

}  // namespace
}  // namespace pjsched
