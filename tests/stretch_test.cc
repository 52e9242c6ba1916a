// Tests for the max-stretch extension (src/core/stretch.h; paper Section 7
// Remarks: weighted flow captures both DAG readings of stretch).
#include "src/core/stretch.h"

#include <gtest/gtest.h>

#include "src/core/run.h"
#include "src/dag/builders.h"
#include "tests/test_util.h"

namespace pjsched {
namespace {

using testutil::make_instance;

TEST(StretchTest, Denominators) {
  core::JobSpec job;
  job.graph = dag::parallel_for_dag(4, 5);  // W = 22, P = 7
  EXPECT_DOUBLE_EQ(core::stretch_denominator(job, core::StretchKind::kByWork),
                   22.0);
  EXPECT_DOUBLE_EQ(core::stretch_denominator(job, core::StretchKind::kBySpan),
                   7.0);
}

TEST(StretchTest, ApplyWeightsInvertsDenominator) {
  auto inst = make_instance({
      {0.0, dag::single_node(10)},
      {0.0, dag::serial_chain(2, 3)},
  });
  core::apply_stretch_weights(inst, core::StretchKind::kByWork);
  EXPECT_DOUBLE_EQ(inst.jobs[0].weight, 0.1);
  EXPECT_DOUBLE_EQ(inst.jobs[1].weight, 1.0 / 6.0);
  core::apply_stretch_weights(inst, core::StretchKind::kBySpan);
  EXPECT_DOUBLE_EQ(inst.jobs[0].weight, 0.1);      // P == W for one node
  EXPECT_DOUBLE_EQ(inst.jobs[1].weight, 1.0 / 6.0);  // chain: P == W
}

TEST(StretchTest, MaxStretchMatchesWeightedFlowUnderStretchWeights) {
  auto inst = testutil::random_instance(9, 15, 20.0);
  core::apply_stretch_weights(inst, core::StretchKind::kByWork);
  const auto res =
      core::run_scheduler(inst, core::parse_scheduler("bwf"), {2, 1.0});
  EXPECT_NEAR(core::max_stretch(inst, res, core::StretchKind::kByWork),
              res.max_weighted_flow, 1e-9);
}

TEST(StretchTest, BySpanStretchAtLeastOneOverSpeed) {
  // Flow >= P/s, so by-span stretch >= 1/s for every scheduler.
  auto inst = testutil::random_instance(10, 20, 30.0);
  for (const char* name : {"fifo", "bwf", "admit-first"}) {
    const auto res =
        core::run_scheduler(inst, core::parse_scheduler(name), {4, 1.0});
    EXPECT_GE(core::max_stretch(inst, res, core::StretchKind::kBySpan),
              1.0 - 1e-9)
        << name;
  }
}

TEST(StretchTest, BwfWithStretchWeightsBeatsFifoOnAdversarialMix) {
  // A giant job saturates the machine; tiny jobs arrive behind it.  FIFO
  // makes the tiny jobs wait (enormous stretch); BWF with by-work stretch
  // weights prioritizes them.
  core::Instance inst;
  inst.jobs.push_back({0.0, 1.0, dag::single_node(1000)});
  for (int i = 0; i < 10; ++i)
    inst.jobs.push_back(
        {10.0 + static_cast<core::Time>(i), 1.0, dag::single_node(2)});
  auto weighted = inst;
  core::apply_stretch_weights(weighted, core::StretchKind::kByWork);

  const auto fifo =
      core::run_scheduler(inst, core::parse_scheduler("fifo"), {1, 1.0});
  const auto bwf =
      core::run_scheduler(weighted, core::parse_scheduler("bwf"), {1, 1.0});
  const double fifo_stretch =
      core::max_stretch(inst, fifo, core::StretchKind::kByWork);
  const double bwf_stretch =
      core::max_stretch(weighted, bwf, core::StretchKind::kByWork);
  EXPECT_LT(bwf_stretch, fifo_stretch / 10.0);
}

TEST(StretchTest, SizeMismatchRejected) {
  auto inst = make_instance({{0.0, dag::single_node(1)}});
  core::StreamRunResult res;  // streamed: no per-job vectors
  EXPECT_THROW(core::max_stretch(inst, res, core::StretchKind::kByWork),
               std::invalid_argument);
}

}  // namespace
}  // namespace pjsched
