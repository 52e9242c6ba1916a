// Tests for the schedule auditor (src/metrics/audit.h): a clean trace
// passes, and each class of violation is detected.
#include "src/metrics/audit.h"

#include <gtest/gtest.h>

#include "src/dag/builders.h"
#include "tests/test_util.h"

namespace pjsched {
namespace {

using testutil::make_instance;

// A correct 2-processor schedule of: job 0 = chain(2 nodes x 2 units),
// job 1 = single node (3 units) arriving at t = 1.
struct Fixture {
  core::Instance inst = make_instance({
      {0.0, dag::serial_chain(2, 2)},
      {1.0, dag::single_node(3)},
  });
  core::MachineConfig machine{2, 1.0};
  std::vector<core::Time> completion{4.0, 4.0};
  sim::Trace trace;

  Fixture() {
    trace.add_interval({0, 0, 0, 0.0, 2.0});
    trace.add_interval({0, 1, 0, 2.0, 4.0});
    trace.add_interval({1, 0, 1, 1.0, 4.0});
  }
};

TEST(AuditTest, CleanSchedulePasses) {
  Fixture f;
  const auto report =
      metrics::audit_schedule(f.inst, f.machine, f.trace, f.completion);
  EXPECT_TRUE(report.ok) << report.to_string();
  EXPECT_TRUE(report.to_string().empty());
}

TEST(AuditTest, DetectsProcessorOverlap) {
  Fixture f;
  sim::Trace bad;
  bad.add_interval({0, 0, 0, 0.0, 2.0});
  bad.add_interval({0, 1, 0, 1.0, 3.0});  // overlaps on proc 0
  bad.add_interval({1, 0, 1, 1.0, 4.0});
  const auto report =
      metrics::audit_schedule(f.inst, f.machine, bad, {3.0, 4.0});
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.to_string().find("overlap"), std::string::npos);
}

TEST(AuditTest, DetectsPrecedenceViolation) {
  Fixture f;
  sim::Trace bad;
  bad.add_interval({0, 1, 0, 0.0, 2.0});  // node 1 before node 0!
  bad.add_interval({0, 0, 0, 2.0, 4.0});
  bad.add_interval({1, 0, 1, 1.0, 4.0});
  const auto report =
      metrics::audit_schedule(f.inst, f.machine, bad, {4.0, 4.0});
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.to_string().find("precedence"), std::string::npos);
}

TEST(AuditTest, DetectsEarlyStart) {
  Fixture f;
  sim::Trace bad;
  bad.add_interval({0, 0, 0, 0.0, 2.0});
  bad.add_interval({0, 1, 0, 2.0, 4.0});
  bad.add_interval({1, 0, 1, 0.5, 3.5});  // job 1 arrives at t = 1
  const auto report =
      metrics::audit_schedule(f.inst, f.machine, bad, {4.0, 3.5});
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.to_string().find("before arrival"), std::string::npos);
}

TEST(AuditTest, DetectsWrongWorkAmount) {
  Fixture f;
  sim::Trace bad;
  bad.add_interval({0, 0, 0, 0.0, 2.0});
  bad.add_interval({0, 1, 0, 2.0, 3.0});  // node 1 gets 1 unit, needs 2
  bad.add_interval({1, 0, 1, 1.0, 4.0});
  const auto report =
      metrics::audit_schedule(f.inst, f.machine, bad, {3.0, 4.0});
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.to_string().find("work mismatch"), std::string::npos);
}

TEST(AuditTest, DetectsMissingNode) {
  Fixture f;
  sim::Trace bad;
  bad.add_interval({0, 0, 0, 0.0, 2.0});
  bad.add_interval({1, 0, 1, 1.0, 4.0});  // job 0 node 1 never runs
  const auto report =
      metrics::audit_schedule(f.inst, f.machine, bad, {2.0, 4.0});
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.to_string().find("never executed"), std::string::npos);
}

TEST(AuditTest, DetectsNodeSelfOverlapAcrossProcessors) {
  auto inst = make_instance({{0.0, dag::single_node(4)}});
  sim::Trace bad;
  bad.add_interval({0, 0, 0, 0.0, 2.0});
  bad.add_interval({0, 0, 1, 1.0, 3.0});  // same node on two procs at once
  const auto report = metrics::audit_schedule(inst, {2, 1.0}, bad, {3.0});
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.to_string().find("self-overlap"), std::string::npos);
}

TEST(AuditTest, DetectsCompletionMismatch) {
  Fixture f;
  // Job 1 actually ends at 4.
  const auto report =
      metrics::audit_schedule(f.inst, f.machine, f.trace, {4.0, 5.0});
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.to_string().find("completion"), std::string::npos);
}

// A streamed result has no per-job vectors: auditing it must fail, not
// pass check 7 vacuously.  A mis-sized vector fails too.
TEST(AuditTest, DetectsMissingCompletions) {
  Fixture f;
  const auto report = metrics::audit_schedule(f.inst, f.machine, f.trace, {});
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.to_string().find("0 completion times for 2 jobs"),
            std::string::npos);
  EXPECT_FALSE(
      metrics::audit_schedule(f.inst, f.machine, f.trace, {4, 4, 4}).ok);
}

TEST(AuditTest, DetectsOutOfRangeIds) {
  Fixture f;
  sim::Trace bad;
  bad.add_interval({7, 0, 0, 0.0, 1.0});  // no job 7
  const auto report =
      metrics::audit_schedule(f.inst, f.machine, bad, {4.0, 4.0});
  EXPECT_FALSE(report.ok);
}

TEST(AuditTest, RespectsSpeedInWorkAccounting) {
  // At speed 2, a 4-unit node runs for 2 time units.
  auto inst = make_instance({{0.0, dag::single_node(4)}});
  sim::Trace trace;
  trace.add_interval({0, 0, 0, 0.0, 2.0});
  const std::vector<core::Time> completion{2.0};
  EXPECT_TRUE(metrics::audit_schedule(inst, {1, 2.0}, trace, completion).ok);
  // The same trace at speed 1 under-delivers.
  EXPECT_FALSE(metrics::audit_schedule(inst, {1, 1.0}, trace, completion).ok);
}

}  // namespace
}  // namespace pjsched
