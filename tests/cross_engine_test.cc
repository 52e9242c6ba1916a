// Cross-engine validation: the two simulation engines implement the same
// machine model, so on instances where scheduling policy cannot matter
// (single-job, or non-overlapping sequential jobs) their outcomes must
// agree exactly or within the step engine's quantization; and greedy
// schedules must respect Brent-type ceilings.
#include <gtest/gtest.h>

#include "src/dag/builders.h"
#include "src/sched/event_schedulers.h"
#include "src/sched/opt_bound.h"
#include "src/sched/work_stealing.h"
#include "tests/test_util.h"

namespace pjsched {
namespace {

using testutil::make_instance;

TEST(CrossEngineTest, SequentialJobIdenticalInBothEngines) {
  // A chain has no scheduling freedom: both engines must give W exactly.
  auto inst = make_instance({{0.0, dag::serial_chain(7, 3)}});
  sched::FifoScheduler fifo;
  sched::WorkStealingScheduler ws(0, 5);
  EXPECT_DOUBLE_EQ(fifo.run(inst, {4, 1.0}).completion[0], 21.0);
  EXPECT_DOUBLE_EQ(ws.run(inst, {4, 1.0}).completion[0], 21.0);
}

TEST(CrossEngineTest, NonOverlappingSequentialJobsMatchOptBound) {
  // m = 1, admit-first, integer arrivals with gaps: work stealing on one
  // worker degenerates to non-preemptive FIFO, which equals the OPT-sim
  // reduction for m = 1 exactly.
  auto inst = make_instance({
      {0.0, dag::single_node(5)},
      {2.0, dag::single_node(3)},
      {4.0, dag::single_node(4)},
      {20.0, dag::single_node(2)},
  });
  sched::WorkStealingScheduler ws(0, 9);
  sched::OptLowerBound opt;
  const auto w = ws.run(inst, {1, 1.0});
  const auto o = opt.run(inst, {1, 1.0});
  ASSERT_EQ(w.completion.size(), o.completion.size());
  for (std::size_t i = 0; i < w.completion.size(); ++i)
    EXPECT_DOUBLE_EQ(w.completion[i], o.completion[i]) << "job " << i;
}

TEST(CrossEngineTest, EventEngineSingleJobWithinBrentBound) {
  // FIFO on a single job is a greedy schedule: makespan <= W/m + P(m-1)/m.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    sim::Rng rng(seed);
    dag::RandomLayeredOptions opt;
    opt.layers = 1 + static_cast<std::size_t>(rng.uniform_int(5));
    opt.max_width = 6;
    opt.max_work = 9;
    auto inst = make_instance({{0.0, dag::random_layered(rng, opt)}});
    const unsigned m = 1 + static_cast<unsigned>(rng.uniform_int(6));
    sched::FifoScheduler fifo;
    const auto res = fifo.run(inst, {m, 1.0});
    const auto& g = inst.jobs[0].graph;
    const double w = static_cast<double>(g.total_work());
    const double p = static_cast<double>(g.critical_path());
    const double brent = w / m + p * (m - 1.0) / m;
    EXPECT_LE(res.completion[0], brent + 1e-6)
        << "seed " << seed << " m " << m;
  }
}

TEST(CrossEngineTest, StepEngineSingleJobWithinStealAdjustedBound) {
  // Work stealing is greedy except for steal steps; with W + P*m steal
  // slack the bound is loose but must always hold at speed 1:
  // completion <= W + P + (steal overhead); we use the sequential ceiling
  // W plus admission/steal slack as an engine-sanity envelope.
  for (std::uint64_t seed = 20; seed < 26; ++seed) {
    sim::Rng rng(seed);
    dag::RandomLayeredOptions opt;
    opt.layers = 1 + static_cast<std::size_t>(rng.uniform_int(4));
    opt.max_width = 5;
    opt.max_work = 8;
    auto inst = make_instance({{0.0, dag::random_layered(rng, opt)}});
    const auto& g = inst.jobs[0].graph;
    sched::WorkStealingScheduler ws(0, seed);
    const auto res = ws.run(inst, {4, 1.0});
    EXPECT_LE(res.completion[0],
              static_cast<double>(g.total_work()) + 1.0)
        << "seed " << seed;
    EXPECT_GE(res.completion[0],
              static_cast<double>(g.total_work()) / 4.0 - 1e-9);
  }
}

TEST(CrossEngineTest, BothEnginesAgreeOnTotalWorkDelivered) {
  auto inst = testutil::random_instance(42, 20, 30.0);
  sim::Trace event_trace, step_trace;
  sched::FifoScheduler fifo;
  sched::WorkStealingScheduler ws(0, 3);
  fifo.run(inst, {3, 1.0}, &event_trace);
  ws.run(inst, {3, 1.0}, &step_trace);

  const auto delivered = [](const sim::Trace& t) {
    double sum = 0.0;
    for (const auto& iv : t.intervals()) sum += iv.end - iv.start;
    return sum;
  };
  const auto total = static_cast<double>(inst.total_work());
  EXPECT_NEAR(delivered(event_trace), total, 1e-6);
  EXPECT_NEAR(delivered(step_trace), total, 1e-6);
}

TEST(CrossEngineTest, SpeedScalingConsistency) {
  // Doubling speed exactly halves a single job's completion in both
  // engines (no contention, deterministic single-worker execution).
  auto inst = make_instance({{0.0, dag::serial_chain(5, 4)}});
  sched::FifoScheduler fifo;
  sched::WorkStealingScheduler ws(0, 1);
  EXPECT_DOUBLE_EQ(fifo.run(inst, {2, 2.0}).completion[0],
                   fifo.run(inst, {2, 1.0}).completion[0] / 2.0);
  EXPECT_DOUBLE_EQ(ws.run(inst, {2, 2.0}).completion[0],
                   ws.run(inst, {2, 1.0}).completion[0] / 2.0);
}

TEST(CrossEngineTest, MapReduceShapeSchedulesCorrectly) {
  // Map-reduce: 8 maps of 4, an all-to-all shuffle, 2 reduces of 6.  On
  // m = 4 at speed 1 under FIFO the maps take ceil(8/4)*4 = 8 and the
  // reduces run together: 6.  Total 14.
  dag::Dag map_reduce;
  for (int i = 0; i < 8; ++i) map_reduce.add_node(4);
  for (int i = 0; i < 2; ++i) map_reduce.add_node(6);
  for (dag::NodeId map = 0; map < 8; ++map)
    for (dag::NodeId reduce = 8; reduce < 10; ++reduce)
      map_reduce.add_edge(map, reduce);
  map_reduce.seal();
  auto inst = make_instance({{0.0, std::move(map_reduce)}});
  sched::FifoScheduler fifo;
  EXPECT_DOUBLE_EQ(fifo.run(inst, {4, 1.0}).completion[0], 14.0);
}

}  // namespace
}  // namespace pjsched
