// Tests for trace visualization/export (src/metrics/gantt.h).
#include "src/metrics/gantt.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/dag/builders.h"
#include "src/sched/event_schedulers.h"
#include "src/sched/work_stealing.h"
#include "tests/test_util.h"

namespace pjsched {
namespace {

sim::Trace tiny_trace() {
  sim::Trace trace;
  trace.add_interval({0, 0, 0, 0.0, 4.0});
  trace.add_interval({1, 0, 1, 2.0, 6.0});
  trace.add_interval({0, 1, 0, 5.0, 8.0});
  return trace;
}

TEST(AsciiGanttTest, PaintsJobsAndIdle) {
  const auto chart = metrics::ascii_gantt(tiny_trace(), 2, {.width = 8});
  // Window [0, 8), 1 unit per column.
  EXPECT_NE(chart.find("P0  |AAAA.AAA|"), std::string::npos) << chart;
  EXPECT_NE(chart.find("P1  |..BBBB..|"), std::string::npos) << chart;
}

TEST(AsciiGanttTest, WindowClipping) {
  const auto chart =
      metrics::ascii_gantt(tiny_trace(), 2, {.width = 4, .t_begin = 4.0,
                                             .t_end = 8.0});
  EXPECT_NE(chart.find("P0  |.AAA|"), std::string::npos) << chart;
  EXPECT_NE(chart.find("P1  |BB..|"), std::string::npos) << chart;
}

TEST(AsciiGanttTest, BadArgsRejected) {
  EXPECT_THROW(metrics::ascii_gantt(tiny_trace(), 0, {}),
               std::invalid_argument);
  EXPECT_THROW(metrics::ascii_gantt(tiny_trace(), 1, {.width = 0}),
               std::invalid_argument);
  sim::Trace empty;
  EXPECT_THROW(metrics::ascii_gantt(empty, 1, {}), std::invalid_argument);
}

TEST(ChromeTraceTest, EmitsSlicesAndInstants) {
  sim::Trace trace;
  trace.add_interval({3, 1, 0, 1.0, 2.5});
  trace.add_steal({2, 0, true, 7});
  trace.add_admission({1, 3, 9});
  const auto json = metrics::chrome_trace_json(trace);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"job3/node1\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1.5"), std::string::npos);
  EXPECT_NE(json.find("steal hit"), std::string::npos);
  EXPECT_NE(json.find("admit job3"), std::string::npos);
  // Crude JSON well-formedness: balanced braces/brackets.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(ChromeTraceTest, EmptyTraceIsValid) {
  sim::Trace empty;
  EXPECT_EQ(metrics::chrome_trace_json(empty), "{\"traceEvents\":[]}");
}

TEST(UtilizationTimelineTest, ExactBuckets) {
  // One processor busy [0,4), the other [2,6); horizon 8, 4 buckets of 2.
  const auto busy = metrics::utilization_timeline(tiny_trace(), 4, 8.0);
  ASSERT_EQ(busy.size(), 4u);
  EXPECT_DOUBLE_EQ(busy[0], 1.0);   // only P0's [0,2)
  EXPECT_DOUBLE_EQ(busy[1], 2.0);   // P0 [2,4) + P1 [2,4)
  EXPECT_DOUBLE_EQ(busy[2], 1.5);   // P1 [4,6) + P0 [5,6)
  EXPECT_DOUBLE_EQ(busy[3], 1.0);   // P0 [6,8)
}

TEST(UtilizationTimelineTest, BadArgsRejected) {
  EXPECT_THROW(metrics::utilization_timeline(tiny_trace(), 0),
               std::invalid_argument);
}

TEST(GanttIntegrationTest, RealScheduleRenders) {
  auto inst = testutil::random_instance(3, 12, 20.0);
  sim::Trace trace;
  sched::FifoScheduler fifo;
  fifo.run(inst, {3, 1.0}, &trace);
  const auto chart = metrics::ascii_gantt(trace, 3, {.width = 60});
  EXPECT_NE(chart.find("P0"), std::string::npos);
  EXPECT_NE(chart.find("P2"), std::string::npos);

  const auto busy = metrics::utilization_timeline(trace, 10);
  double total = 0.0;
  for (double b : busy) total += b;
  EXPECT_GT(total, 0.0);
}

TEST(GanttIntegrationTest, WorkStealingTraceExports) {
  auto inst = testutil::random_instance(4, 10, 15.0);
  sim::Trace trace;
  sched::WorkStealingScheduler ws(2, 5);
  ws.run(inst, {2, 1.0}, &trace);
  const auto json = metrics::chrome_trace_json(trace);
  EXPECT_NE(json.find("\"cat\":\"steal\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"admission\""), std::string::npos);
}

}  // namespace
}  // namespace pjsched
