// Tests for the scheduler factory and name parser (src/core/run.h).
#include "src/core/run.h"

#include <gtest/gtest.h>

#include "src/dag/builders.h"
#include "tests/test_util.h"

namespace pjsched {
namespace {

using testutil::make_instance;

TEST(ParseSchedulerTest, KnownNames) {
  EXPECT_EQ(core::parse_scheduler("fifo").kind, core::SchedulerKind::kFifo);
  EXPECT_EQ(core::parse_scheduler("bwf").kind, core::SchedulerKind::kBwf);
  EXPECT_EQ(core::parse_scheduler("admit-first").kind,
            core::SchedulerKind::kAdmitFirst);
  EXPECT_EQ(core::parse_scheduler("opt").kind, core::SchedulerKind::kOptBound);
  EXPECT_EQ(core::parse_scheduler("opt-lower-bound").kind,
            core::SchedulerKind::kOptBound);
  EXPECT_EQ(core::parse_scheduler("lifo").kind, core::SchedulerKind::kLifo);
  EXPECT_EQ(core::parse_scheduler("sjf").kind, core::SchedulerKind::kSjf);
  EXPECT_EQ(core::parse_scheduler("round-robin").kind,
            core::SchedulerKind::kRoundRobin);
}

TEST(ParseSchedulerTest, StealKVariants) {
  const auto s16 = core::parse_scheduler("steal-16-first");
  EXPECT_EQ(s16.kind, core::SchedulerKind::kStealKFirst);
  EXPECT_EQ(s16.steal_k, 16u);
  const auto s1 = core::parse_scheduler("steal-1-first");
  EXPECT_EQ(s1.steal_k, 1u);
  const auto s0 = core::parse_scheduler("steal-0-first");
  EXPECT_EQ(s0.steal_k, 0u);
}

TEST(ParseSchedulerTest, WeightedAdmissionSuffix) {
  const auto a = core::parse_scheduler("admit-first-bwf");
  EXPECT_EQ(a.kind, core::SchedulerKind::kAdmitFirst);
  EXPECT_TRUE(a.admit_by_weight);
  const auto s = core::parse_scheduler("steal-8-first-bwf");
  EXPECT_EQ(s.kind, core::SchedulerKind::kStealKFirst);
  EXPECT_EQ(s.steal_k, 8u);
  EXPECT_TRUE(s.admit_by_weight);
  // Round-trips through the factory name.
  EXPECT_EQ(core::make_scheduler(s)->name(), "steal-8-first-bwf");
  // Plain "bwf" is the centralized scheduler, not a suffix form.
  EXPECT_FALSE(core::parse_scheduler("bwf").admit_by_weight);
  // The suffix is rejected on non-work-stealing schedulers.
  EXPECT_THROW(core::parse_scheduler("fifo-bwf"), std::invalid_argument);
}

TEST(ParseSchedulerTest, BadNamesRejected) {
  EXPECT_THROW(core::parse_scheduler(""), std::invalid_argument);
  EXPECT_THROW(core::parse_scheduler("fifoo"), std::invalid_argument);
  EXPECT_THROW(core::parse_scheduler("steal--first"), std::invalid_argument);
  EXPECT_THROW(core::parse_scheduler("steal-x-first"), std::invalid_argument);
  EXPECT_THROW(core::parse_scheduler("steal-5-last"), std::invalid_argument);
  // k is digits only and fits `unsigned`: no sign, no wrap-around.
  EXPECT_THROW(core::parse_scheduler("steal--1-first"), std::invalid_argument);
  EXPECT_THROW(core::parse_scheduler("steal-+5-first"), std::invalid_argument);
  EXPECT_THROW(core::parse_scheduler("steal-5x-first"), std::invalid_argument);
  EXPECT_THROW(core::parse_scheduler("steal-4294967296-first"),
               std::invalid_argument);
  EXPECT_EQ(core::parse_scheduler("steal-4294967295-first").steal_k,
            4294967295u);
}

TEST(MakeSchedulerTest, RoundTripNames) {
  for (const char* name :
       {"fifo", "bwf", "admit-first", "steal-16-first", "lifo", "sjf",
        "round-robin"}) {
    const auto sched = core::make_scheduler(core::parse_scheduler(name));
    EXPECT_EQ(sched->name(), name);
  }
  EXPECT_EQ(core::make_scheduler(core::parse_scheduler("opt"))->name(),
            "opt-lower-bound");
}

TEST(RunSchedulerTest, OneCallApi) {
  auto inst = make_instance({
      {0.0, dag::parallel_for_dag(4, 3)},
      {2.0, dag::single_node(5)},
  });
  const auto res = core::run_scheduler(
      inst, core::parse_scheduler("fifo"), {2, 1.0});
  EXPECT_EQ(res.completion.size(), 2u);
  EXPECT_GT(res.max_flow, 0.0);
}

TEST(RunSchedulerTest, SeedPropagatesToWorkStealing) {
  auto inst = testutil::random_instance(61, 20, 25.0);
  core::SchedulerSpec spec;
  spec.kind = core::SchedulerKind::kStealKFirst;
  spec.steal_k = 4;
  spec.seed = 9;
  const auto a = core::run_scheduler(inst, spec, {4, 1.0});
  const auto b = core::run_scheduler(inst, spec, {4, 1.0});
  EXPECT_EQ(a.completion, b.completion);
}

}  // namespace
}  // namespace pjsched
