// Tests for execution-trace mechanics (src/sim/trace.h): interval
// coalescing and event recording toggles.
#include "src/sim/trace.h"

#include <gtest/gtest.h>

namespace pjsched::sim {
namespace {

TEST(TraceTest, CoalesceMergesAdjacentSameNodeIntervals) {
  Trace t;
  t.add_interval({0, 0, 0, 0.0, 1.0});
  t.add_interval({0, 0, 0, 1.0, 2.0});   // same proc/job/node, contiguous
  t.add_interval({0, 0, 0, 2.0, 3.5});
  t.coalesce();
  ASSERT_EQ(t.intervals().size(), 1u);
  EXPECT_DOUBLE_EQ(t.intervals()[0].start, 0.0);
  EXPECT_DOUBLE_EQ(t.intervals()[0].end, 3.5);
}

TEST(TraceTest, CoalesceKeepsGapsAndDifferentNodes) {
  Trace t;
  t.add_interval({0, 0, 0, 0.0, 1.0});
  t.add_interval({0, 0, 0, 2.0, 3.0});   // gap: stays split
  t.add_interval({0, 1, 0, 3.0, 4.0});   // different node: stays split
  t.add_interval({0, 1, 1, 4.0, 5.0});   // different proc: stays split
  t.coalesce();
  EXPECT_EQ(t.intervals().size(), 4u);
}

TEST(TraceTest, CoalesceSortsByProcessorThenTime) {
  Trace t;
  t.add_interval({1, 0, 1, 5.0, 6.0});
  t.add_interval({0, 0, 0, 0.0, 1.0});
  t.add_interval({2, 0, 1, 1.0, 2.0});
  t.coalesce();
  ASSERT_EQ(t.intervals().size(), 3u);
  EXPECT_EQ(t.intervals()[0].proc, 0u);
  EXPECT_EQ(t.intervals()[1].proc, 1u);
  EXPECT_DOUBLE_EQ(t.intervals()[1].start, 1.0);
  EXPECT_DOUBLE_EQ(t.intervals()[2].start, 5.0);
}

TEST(TraceTest, RecordsStealAndAdmissionEvents) {
  Trace t;
  t.add_steal({0, 1, true, 5});
  t.add_admission({0, 2, 6});
  ASSERT_EQ(t.steals().size(), 1u);
  EXPECT_TRUE(t.steals()[0].success);
  ASSERT_EQ(t.admissions().size(), 1u);
  EXPECT_EQ(t.admissions()[0].job, 2u);
}

TEST(TraceTest, EmptyCoalesceIsNoop) {
  Trace t;
  t.coalesce();
  EXPECT_TRUE(t.intervals().empty());
}

}  // namespace
}  // namespace pjsched::sim
