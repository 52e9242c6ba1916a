// Cross-checks the step engine's work-quantum fast path (macro-stepping
// over all-busy step runs, the default) against the exact per-step
// reference mode (StepEngineOptions::exact_steps): completions, counters,
// and coalesced traces must agree bit for bit across arrivals, machine
// degradation, steal-half, weighted admission, and k in {0, 4, 16}.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/dag/builders.h"
#include "src/sim/step_engine.h"
#include "tests/test_util.h"

namespace pjsched {
namespace {

using testutil::make_instance;
using testutil::make_weighted_instance;

// Runs the instance in both modes and asserts bitwise-identical results.
// Returns the fast run so callers can additionally assert that the fast
// path actually engaged (stats.macro_jumps > 0) where they expect it to.
core::ScheduleResult expect_modes_identical(const core::Instance& inst,
                                            sim::StepEngineOptions opt) {
  sim::Trace fast_trace, exact_trace;
  sim::StepEngineOptions fast_opt = opt;
  fast_opt.exact_steps = false;
  fast_opt.trace = &fast_trace;
  sim::StepEngineOptions exact_opt = opt;
  exact_opt.exact_steps = true;
  exact_opt.trace = &exact_trace;

  const auto fast = testutil::run_step_engine_on(inst, fast_opt);
  const auto exact = testutil::run_step_engine_on(inst, exact_opt);

  EXPECT_EQ(fast.completion, exact.completion);
  EXPECT_EQ(fast.stats.work_steps, exact.stats.work_steps);
  EXPECT_EQ(fast.stats.admissions, exact.stats.admissions);
  EXPECT_EQ(fast.stats.steal_attempts, exact.stats.steal_attempts);
  EXPECT_EQ(fast.stats.successful_steals, exact.stats.successful_steals);
  EXPECT_EQ(fast.stats.idle_steps, exact.stats.idle_steps);
  EXPECT_EQ(exact.stats.macro_jumps, 0u);

  EXPECT_EQ(fast_trace.intervals().size(), exact_trace.intervals().size());
  const std::size_t n_iv = std::min(fast_trace.intervals().size(),
                                    exact_trace.intervals().size());
  for (std::size_t i = 0; i < n_iv; ++i) {
    const auto& a = fast_trace.intervals()[i];
    const auto& b = exact_trace.intervals()[i];
    EXPECT_EQ(a.job, b.job);
    EXPECT_EQ(a.node, b.node);
    EXPECT_EQ(a.proc, b.proc);
    EXPECT_EQ(a.start, b.start);
    EXPECT_EQ(a.end, b.end);
  }
  EXPECT_EQ(fast_trace.steals().size(), exact_trace.steals().size());
  const std::size_t n_st = std::min(fast_trace.steals().size(),
                                    exact_trace.steals().size());
  for (std::size_t i = 0; i < n_st; ++i) {
    const auto& a = fast_trace.steals()[i];
    const auto& b = exact_trace.steals()[i];
    EXPECT_EQ(a.thief, b.thief);
    EXPECT_EQ(a.victim, b.victim);
    EXPECT_EQ(a.success, b.success);
    EXPECT_EQ(a.step, b.step);
  }
  EXPECT_EQ(fast_trace.admissions().size(), exact_trace.admissions().size());
  const std::size_t n_ad = std::min(fast_trace.admissions().size(),
                                    exact_trace.admissions().size());
  for (std::size_t i = 0; i < n_ad; ++i) {
    const auto& a = fast_trace.admissions()[i];
    const auto& b = exact_trace.admissions()[i];
    EXPECT_EQ(a.worker, b.worker);
    EXPECT_EQ(a.job, b.job);
    EXPECT_EQ(a.step, b.step);
  }
  return fast;
}

// Coarse-grained parallel-for jobs: long all-busy runs, the fast path's
// home turf.
core::Instance coarse_instance(std::size_t jobs, core::Time spacing,
                               dag::Work body_work) {
  std::vector<std::pair<core::Time, dag::Dag>> specs;
  for (std::size_t i = 0; i < jobs; ++i)
    specs.emplace_back(spacing * static_cast<double>(i),
                       dag::parallel_for_dag(8, body_work));
  return make_instance(std::move(specs));
}

TEST(FastPathTest, CoarseAllBusyAcrossK) {
  const auto inst = coarse_instance(6, 50.0, 500);
  for (unsigned k : {0u, 4u, 16u}) {
    sim::StepEngineOptions opt;
    opt.machine = {4, 1.0};
    opt.steal_k = k;
    opt.seed = 11 + k;
    const auto fast = expect_modes_identical(inst, opt);
    EXPECT_GT(fast.stats.macro_jumps, 0u) << "k=" << k;
  }
}

TEST(FastPathTest, FineGrainedRandomInstances) {
  // Work 1..6 per node: macro-steps are rare, the per-step machinery does
  // almost everything — the boundary between the paths is exercised hard.
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const auto inst = testutil::random_instance(seed, 30, 60.0);
    for (unsigned k : {0u, 4u, 16u}) {
      sim::StepEngineOptions opt;
      opt.machine = {4, 1.0};
      opt.steal_k = k;
      opt.seed = 100 + seed;
      expect_modes_identical(inst, opt);
    }
  }
}

TEST(FastPathTest, SpeedAugmentedMachine) {
  const auto inst = coarse_instance(4, 13.7, 300);
  sim::StepEngineOptions opt;
  opt.machine = {3, 2.0};
  opt.steal_k = 4;
  opt.seed = 23;
  const auto fast = expect_modes_identical(inst, opt);
  EXPECT_GT(fast.stats.macro_jumps, 0u);
}

TEST(FastPathTest, DegradationEventsInterruptMacroSteps) {
  // Workers fail mid-run and recover later; macro-steps must stop exactly
  // at each event so the fail-stop handling sees the same state.
  auto inst = coarse_instance(5, 40.0, 400);
  for (unsigned k : {0u, 4u}) {
    sim::StepEngineOptions opt;
    opt.machine = {4, 1.0, {{120.0, 2, 1.0}, {300.0, 4, 1.0}}};
    opt.steal_k = k;
    opt.seed = 31 + k;
    const auto fast = expect_modes_identical(inst, opt);
    EXPECT_GT(fast.stats.macro_jumps, 0u) << "k=" << k;
  }
}

TEST(FastPathTest, StealHalfVariant) {
  const auto inst = coarse_instance(4, 25.0, 250);
  sim::StepEngineOptions opt;
  opt.machine = {4, 1.0};
  opt.steal_k = 4;
  opt.steal_half = true;
  opt.seed = 41;
  expect_modes_identical(inst, opt);
}

TEST(FastPathTest, WeightedAdmission) {
  std::vector<std::tuple<core::Time, double, dag::Dag>> specs;
  for (std::size_t i = 0; i < 8; ++i)
    specs.emplace_back(5.0 * static_cast<double>(i),
                       static_cast<double>(1 + i % 3),
                       dag::parallel_for_dag(4, 120));
  const auto inst = make_weighted_instance(std::move(specs));
  sim::StepEngineOptions opt;
  opt.machine = {3, 1.0};
  opt.steal_k = 0;
  opt.admit_by_weight = true;
  opt.seed = 53;
  expect_modes_identical(inst, opt);
}

TEST(FastPathTest, IdleGapsComposeWithMacroSteps) {
  // Huge arrival gaps exercise the idle fast-forward and the work-quantum
  // fast path in the same run.
  auto inst = make_instance({
      {0.0, dag::parallel_for_dag(4, 300)},
      {10000.0, dag::serial_chain(3, 200)},
      {20000.0, dag::parallel_for_dag(8, 100)},
  });
  sim::StepEngineOptions opt;
  opt.machine = {4, 1.0};
  opt.steal_k = 4;
  opt.seed = 61;
  const auto fast = expect_modes_identical(inst, opt);
  EXPECT_GT(fast.stats.macro_jumps, 0u);
}

TEST(FastPathTest, SingleWorkerPureMacro) {
  // m = 1: after admission every step is all-busy, so the whole node runs
  // in one macro-step per node.
  auto inst = make_instance({{0.0, dag::serial_chain(4, 1000)}});
  sim::StepEngineOptions opt;
  opt.machine = {1, 1.0};
  const auto fast = expect_modes_identical(inst, opt);
  EXPECT_EQ(fast.stats.macro_jumps, 4u);
  EXPECT_DOUBLE_EQ(fast.completion[0], 4000.0);
}

TEST(FastPathTest, BudgetGuardStillFiresUnderMacroStepping) {
  auto inst = make_instance({{0.0, dag::single_node(100)}});
  sim::StepEngineOptions opt;
  opt.machine = {1, 1.0};
  opt.max_steps = 10;
  EXPECT_THROW(testutil::run_step_engine_on(inst, opt), std::logic_error);
  opt.exact_steps = true;
  EXPECT_THROW(testutil::run_step_engine_on(inst, opt), std::logic_error);
}

}  // namespace
}  // namespace pjsched
