// Tests for the fundamental types (src/core/types.h), mirroring the
// paper's Table 1 definitions: F_i = c_i - r_i, objective max_i w_i F_i,
// as a run over an Instance reports them.
#include "src/core/types.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/dag/builders.h"
#include "src/metrics/streaming_stats.h"
#include "src/sched/scheduler.h"
#include "tests/test_util.h"

namespace pjsched {
namespace {

using testutil::make_instance;
using testutil::make_weighted_instance;

// A stand-in engine: completes job i at completion[i] (never if kNoTime)
// and reports it under id i + shift.  Driven through run(const Instance&).
class ScriptedScheduler final : public sched::Scheduler {
 public:
  explicit ScriptedScheduler(std::vector<core::Time> c, core::JobId shift = 0)
      : completion_(std::move(c)), shift_(shift) {}

 private:
  core::StreamRunResult simulate(core::JobSource& source,
                                 const core::MachineConfig& /*machine*/,
                                 metrics::StreamingFlowStats* stats,
                                 sim::Trace* /*trace*/) override {
    while (!source.done()) {
      const core::StreamedJob j = source.take();
      if (completion_[j.id] != core::kNoTime)
        stats->record(j.id + shift_, j.arrival, j.weight, completion_[j.id]);
    }
    return stats->result("scripted", core::EngineStats{});
  }

  std::vector<core::Time> completion_;
  core::JobId shift_;
};

TEST(InstanceRunTest, ComputesTableOneQuantities) {
  auto inst = make_weighted_instance({
      {0.0, 1.0, dag::single_node(1)},
      {2.0, 3.0, dag::single_node(1)},
      {5.0, 1.0, dag::single_node(1)},
  });
  const auto res = ScriptedScheduler({4.0, 6.0, 9.0}).run(inst, {1, 1.0});
  EXPECT_EQ(res.completion, (std::vector<core::Time>{4.0, 6.0, 9.0}));
  EXPECT_EQ(res.job_flow, (std::vector<core::Time>{4.0, 4.0, 4.0}));
  EXPECT_DOUBLE_EQ(res.max_flow, 4.0);
  EXPECT_DOUBLE_EQ(res.max_weighted_flow, 12.0);  // job 1: w=3, F=4
  EXPECT_EQ(res.argmax_flow, 1u);
  EXPECT_DOUBLE_EQ(res.mean_flow, 4.0);
  EXPECT_DOUBLE_EQ(res.makespan, 9.0);
  EXPECT_EQ(res.flow.count, 3u);
  EXPECT_DOUBLE_EQ(res.flow.stddev, 0.0);
  EXPECT_DOUBLE_EQ(res.flow.p50, 4.0);
  EXPECT_DOUBLE_EQ(res.flow.p99, 4.0);
}

TEST(InstanceRunTest, RejectsBadCompletions) {
  auto inst =
      make_instance({{0.0, dag::single_node(1)}, {5.0, dag::single_node(1)}});
  const core::MachineConfig m{1, 1.0};
  // Job 1 never completes; completes before it arrives; is reported as id 2.
  EXPECT_THROW(ScriptedScheduler({4, core::kNoTime}).run(inst, m),
               std::logic_error);
  EXPECT_THROW(ScriptedScheduler({4, 4}).run(inst, m), std::logic_error);
  EXPECT_THROW(ScriptedScheduler({4, 9}, 1).run(inst, m), std::out_of_range);
}

TEST(InstanceTest, Aggregates) {
  auto inst = make_instance({
      {0.0, dag::serial_chain(3, 4)},       // W = 12, P = 12
      {1.0, dag::parallel_for_dag(4, 5)},   // W = 22, P = 7
  });
  EXPECT_EQ(inst.size(), 2u);
  EXPECT_EQ(inst.total_work(), 34u);
  EXPECT_EQ(inst.max_work(), 22u);
  EXPECT_EQ(inst.max_critical_path(), 12u);
}

TEST(InstanceTest, ValidateCatchesBadJobs) {
  core::Instance empty;
  EXPECT_THROW(empty.validate(), std::invalid_argument);

  auto negative = make_instance({{0.0, dag::single_node(1)}});
  negative.jobs[0].arrival = -1.0;
  EXPECT_THROW(negative.validate(), std::invalid_argument);

  auto bad_weight = make_instance({{0.0, dag::single_node(1)}});
  bad_weight.jobs[0].weight = 0.0;
  EXPECT_THROW(bad_weight.validate(), std::invalid_argument);

  // NaN compares false both ways, so `arrival < 0` alone lets it through.
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {std::nan(""), inf}) {
    auto arrival = make_instance({{0.0, dag::single_node(1)}});
    arrival.jobs[0].arrival = bad;
    EXPECT_THROW(arrival.validate(), std::invalid_argument) << bad;
    auto weight = make_instance({{0.0, dag::single_node(1)}});
    weight.jobs[0].weight = bad;
    EXPECT_THROW(weight.validate(), std::invalid_argument) << bad;
  }

  core::Instance unsealed;
  unsealed.jobs.emplace_back();
  unsealed.jobs[0].graph.add_node(1);
  EXPECT_THROW(unsealed.validate(), std::invalid_argument);
}

TEST(InstanceTest, ArrivalOrderIsStable) {
  auto inst = make_instance({
      {5.0, dag::single_node(1)},
      {1.0, dag::single_node(1)},
      {5.0, dag::single_node(1)},
      {0.0, dag::single_node(1)},
  });
  EXPECT_EQ(inst.arrival_order(), (std::vector<core::JobId>{3, 1, 0, 2}));
}

TEST(InstanceTest, ValidInstancePasses) {
  auto inst = testutil::random_instance(55, 10, 20.0);
  EXPECT_NO_THROW(inst.validate());
}

}  // namespace
}  // namespace pjsched
