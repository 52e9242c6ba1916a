// Tests for machine degradation (core::MachineConfig::degradation): the
// event engine honors processor/speed changes exactly at event times; the
// step engine models fail-stop worker loss (lowest indices survive, in-
// flight work is lost and recovered via stealing) and rejects speed
// changes.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "src/dag/builders.h"
#include "src/sched/event_schedulers.h"
#include "src/sim/step_engine.h"
#include "tests/test_util.h"

namespace pjsched {
namespace {

using testutil::make_instance;

core::StreamRunResult run_fifo(const core::Instance& inst,
                               const core::MachineConfig& machine) {
  sched::FifoScheduler fifo;
  return fifo.run(inst, machine);
}

core::StreamRunResult run_ws(const core::Instance& inst,
                             const core::MachineConfig& machine,
                             unsigned k = 0, std::uint64_t seed = 1) {
  sim::StepEngineOptions opt;
  opt.machine = machine;
  opt.steal_k = k;
  opt.seed = seed;
  return testutil::run_step_engine_on(inst, opt);
}

TEST(EventEngineDegradationTest, ProcessorLossSerializesRemainingWork) {
  // Two 4-unit jobs on m = 2 run in parallel until t = 2, when the machine
  // drops to one processor.  FIFO finishes job 0's remaining 2 units by
  // t = 4, then job 1's remaining 2 units by t = 6.
  auto inst = make_instance(
      {{0.0, dag::single_node(4)}, {0.0, dag::single_node(4)}});
  const auto res = run_fifo(inst, {2, 1.0, {{2.0, 1, 1.0}}});
  EXPECT_DOUBLE_EQ(res.completion[0], 4.0);
  EXPECT_DOUBLE_EQ(res.completion[1], 6.0);
  EXPECT_DOUBLE_EQ(res.max_flow, 6.0);
}

TEST(EventEngineDegradationTest, SpeedDropScalesRemainingWork) {
  // 4 units on m = 1: 2 done by t = 2 at speed 1; the remaining 2 at
  // speed 0.5 take 4 more time units -> completion at 6.
  auto inst = make_instance({{0.0, dag::single_node(4)}});
  const auto res = run_fifo(inst, {1, 1.0, {{2.0, 1, 0.5}}});
  EXPECT_DOUBLE_EQ(res.completion[0], 6.0);
}

TEST(EventEngineDegradationTest, RecoveryRestoresParallelism) {
  // Two 4-unit jobs on m = 1; at t = 2 a second processor comes online.
  // FIFO: job 0 runs 0..4; job 1 runs 2..6 on the recovered processor.
  auto inst = make_instance(
      {{0.0, dag::single_node(4)}, {0.0, dag::single_node(4)}});
  const auto res = run_fifo(inst, {1, 1.0, {{2.0, 2, 1.0}}});
  EXPECT_DOUBLE_EQ(res.completion[0], 4.0);
  EXPECT_DOUBLE_EQ(res.completion[1], 6.0);
}

TEST(EventEngineDegradationTest, EventBeforeFirstArrivalApplies) {
  // Degrading to m = 1 before the job arrives: the job just runs on the
  // single remaining processor.
  auto inst = make_instance({{5.0, dag::parallel_for_dag(2, 3)}});
  // root(1) + 2 bodies(3) serialized on m=1 (6) + join(1) = 8 units.
  const auto res = run_fifo(inst, {4, 1.0, {{1.0, 1, 1.0}}});
  EXPECT_DOUBLE_EQ(res.completion[0], 13.0);
}

TEST(EventEngineDegradationTest, ZeroProcessorEventThrows) {
  auto inst = make_instance({{0.0, dag::single_node(1)}});
  EXPECT_THROW(run_fifo(inst, {2, 1.0, {{1.0, 0, 1.0}}}),
               std::invalid_argument);
}

TEST(EventEngineDegradationTest, NegativeEventTimeThrows) {
  auto inst = make_instance({{0.0, dag::single_node(1)}});
  EXPECT_THROW(run_fifo(inst, {2, 1.0, {{-1.0, 1, 1.0}}}),
               std::invalid_argument);
}

TEST(EngineDegradationTest, NanEventTimeThrows) {
  auto inst = make_instance({{0.0, dag::single_node(1)}});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(run_fifo(inst, {2, 1.0, {{nan, 1, 1.0}}}),
               std::invalid_argument);
  EXPECT_THROW(run_ws(inst, {2, 1.0, {{nan, 1, 1.0}}}),
               std::invalid_argument);
}

TEST(StepEngineDegradationTest, AllJobsCompleteUnderWorkerLoss) {
  auto inst = make_instance({{0.0, dag::parallel_for_dag(8, 5)},
                             {1.0, dag::parallel_for_dag(8, 5)},
                             {2.0, dag::single_node(10)}});
  const auto res = run_ws(inst, {4, 1.0, {{3.0, 2, 1.0}}});
  for (std::size_t j = 0; j < inst.size(); ++j) {
    EXPECT_GT(res.completion[j], 0.0) << "job " << j;
    EXPECT_GE(res.job_flow[j], 0.0) << "job " << j;
  }
  // Losing half the workers mid-run cannot beat the healthy machine.
  const auto healthy = run_ws(inst, {4, 1.0, {}});
  EXPECT_GE(res.makespan, healthy.makespan);
}

TEST(StepEngineDegradationTest, DeterministicUnderSameSeed) {
  auto inst = make_instance({{0.0, dag::parallel_for_dag(6, 4)},
                             {1.0, dag::parallel_for_dag(6, 4)}});
  const core::MachineConfig machine{4, 1.0, {{2.0, 1, 1.0}}};
  const auto a = run_ws(inst, machine, /*k=*/2, /*seed=*/7);
  const auto b = run_ws(inst, machine, /*k=*/2, /*seed=*/7);
  ASSERT_EQ(a.completion.size(), b.completion.size());
  for (std::size_t j = 0; j < a.completion.size(); ++j)
    EXPECT_DOUBLE_EQ(a.completion[j], b.completion[j]) << "job " << j;
}

TEST(StepEngineDegradationTest, RecoveryAddsWorkersBack) {
  // Lose a worker then regain it; everything still completes, and the
  // makespan is no worse than with the loss made permanent.
  auto inst = make_instance({{0.0, dag::parallel_for_dag(8, 6)},
                             {0.0, dag::parallel_for_dag(8, 6)}});
  const auto recovered =
      run_ws(inst, {2, 1.0, {{3.0, 1, 1.0}, {10.0, 2, 1.0}}});
  const auto permanent = run_ws(inst, {2, 1.0, {{3.0, 1, 1.0}}});
  for (std::size_t j = 0; j < inst.size(); ++j)
    EXPECT_GT(recovered.completion[j], 0.0) << "job " << j;
  EXPECT_LE(recovered.makespan, permanent.makespan);
}

TEST(StepEngineDegradationTest, SpeedChangeEventThrows) {
  auto inst = make_instance({{0.0, dag::single_node(3)}});
  EXPECT_THROW(run_ws(inst, {2, 1.0, {{1.0, 1, 0.5}}}),
               std::invalid_argument);
}

TEST(StepEngineDegradationTest, NoEventsMatchesLegacyBehavior) {
  // An empty degradation list must leave the engine bit-identical to the
  // pre-degradation code path (the golden tests rely on this; here we at
  // least pin determinism of the no-event config against itself).
  auto inst = make_instance({{0.0, dag::parallel_for_dag(4, 3)},
                             {1.0, dag::parallel_for_dag(4, 3)}});
  const auto a = run_ws(inst, {3, 1.0, {}}, /*k=*/1, /*seed=*/5);
  const auto b = run_ws(inst, {3, 1.0, {}}, /*k=*/1, /*seed=*/5);
  for (std::size_t j = 0; j < a.completion.size(); ++j)
    EXPECT_DOUBLE_EQ(a.completion[j], b.completion[j]);
}

}  // namespace
}  // namespace pjsched
