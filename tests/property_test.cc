// Cross-scheduler property tests: on randomized instances, every scheduler
// must produce an audited-legal schedule whose flow times respect the
// information-theoretic lower bounds, and the simulated-OPT bound must
// lower-bound every feasible schedule's max flow (the paper's Section 6
// comparison methodology).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "src/core/bounds.h"
#include "src/core/run.h"
#include "src/metrics/audit.h"
#include "src/sim/trace.h"
#include "tests/test_util.h"

namespace pjsched {
namespace {

struct Cell {
  std::uint64_t seed;
  unsigned m;
  double speed;
};

class SchedulerProperty : public ::testing::TestWithParam<Cell> {};

std::vector<core::SchedulerSpec> all_specs(std::uint64_t seed) {
  using K = core::SchedulerKind;
  std::vector<core::SchedulerSpec> specs;
  for (K kind : {K::kFifo, K::kBwf, K::kLifo, K::kSjf, K::kRoundRobin,
                 K::kAdmitFirst}) {
    core::SchedulerSpec s;
    s.kind = kind;
    s.seed = seed;
    specs.push_back(s);
  }
  core::SchedulerSpec sk;
  sk.kind = K::kStealKFirst;
  sk.steal_k = 8;
  sk.seed = seed;
  specs.push_back(sk);
  return specs;
}

TEST_P(SchedulerProperty, LegalScheduleAndBoundsRespected) {
  const Cell cell = GetParam();
  auto inst = testutil::random_instance(cell.seed, 25, 40.0);
  const core::MachineConfig machine{cell.m, cell.speed};

  for (const auto& spec : all_specs(cell.seed)) {
    sim::Trace trace;
    const auto res = core::run_scheduler(inst, spec, machine, &trace);

    // (1) The schedule is machine-model legal.
    const auto report = metrics::audit_schedule(inst, machine, trace, res);
    ASSERT_TRUE(report.ok)
        << res.scheduler_name << " produced an illegal schedule:\n"
        << report.to_string();

    // (2) Per-job physics: flow >= span/s and >= work/(m*s).
    for (std::size_t i = 0; i < inst.jobs.size(); ++i) {
      const auto& g = inst.jobs[i].graph;
      EXPECT_GE(res.flow[i] + 1e-6,
                static_cast<double>(g.critical_path()) / cell.speed)
          << res.scheduler_name << " job " << i;
      EXPECT_GE(res.flow[i] + 1e-6,
                static_cast<double>(g.total_work()) / (cell.m * cell.speed))
          << res.scheduler_name << " job " << i;
    }

    // (3) At speed 1, no feasible scheduler beats the OPT lower bound.
    if (cell.speed == 1.0) {
      EXPECT_GE(res.max_flow + 1e-6,
                core::lower_bounds(inst, cell.m).opt_sim)
          << res.scheduler_name;
      EXPECT_GE(res.max_flow + 1e-6, core::lower_bounds(inst, 1).span)
          << res.scheduler_name;
    }

    // (4) Bookkeeping consistency.
    EXPECT_EQ(res.completion.size(), inst.size());
    EXPECT_GE(res.max_weighted_flow, res.max_flow - 1e-12);  // weights all 1
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cells, SchedulerProperty,
    ::testing::Values(Cell{1, 1, 1.0}, Cell{2, 2, 1.0}, Cell{3, 3, 1.0},
                      Cell{4, 4, 1.0}, Cell{5, 8, 1.0}, Cell{6, 2, 1.5},
                      Cell{7, 4, 2.0}, Cell{8, 3, 1.25}, Cell{9, 16, 1.0},
                      Cell{10, 5, 3.0}));

// The weighted objective: BWF at speed (1+eps) should land within a modest
// multiple of the weighted lower bound on random weighted instances
// (Theorem 7.1's guarantee is 3/eps^2 vs true OPT; the lower bound is
// looser, so assert only sanity and the bound direction).
class WeightedProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WeightedProperty, BwfRespectsWeightedBound) {
  sim::Rng wrng(GetParam() * 7 + 1);
  auto inst = testutil::random_instance(GetParam(), 20, 30.0);
  for (auto& job : inst.jobs)
    job.weight = std::pow(2.0, static_cast<double>(wrng.uniform_int(5)));

  core::SchedulerSpec spec;
  spec.kind = core::SchedulerKind::kBwf;
  const auto res = core::run_scheduler(inst, spec, {4, 1.0});
  EXPECT_GE(res.max_weighted_flow + 1e-6,
            core::lower_bounds(inst, 4).weighted_combined);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeightedProperty,
                         ::testing::Range<std::uint64_t>(0, 10));

// Work stealing determinism/robustness sweep across (k, seed).
struct WsCell {
  unsigned k;
  std::uint64_t seed;
};
class WorkStealingProperty : public ::testing::TestWithParam<WsCell> {};

TEST_P(WorkStealingProperty, AuditedAndConserving) {
  const WsCell cell = GetParam();
  auto inst = testutil::random_instance(cell.seed + 100, 20, 30.0);
  core::SchedulerSpec spec;
  spec.kind = core::SchedulerKind::kStealKFirst;
  spec.steal_k = cell.k;
  spec.seed = cell.seed;
  const core::MachineConfig machine{4, 1.0};

  sim::Trace trace;
  const auto res = core::run_scheduler(inst, spec, machine, &trace);
  const auto report = metrics::audit_schedule(inst, machine, trace, res);
  ASSERT_TRUE(report.ok) << report.to_string();
  EXPECT_EQ(res.stats.work_steps, inst.total_work());
  // Admissions == number of jobs (each admitted exactly once).
  EXPECT_EQ(res.stats.admissions, inst.size());
  // Failed steals = attempts - successes.
  EXPECT_GE(res.stats.steal_attempts, res.stats.successful_steals);
}

INSTANTIATE_TEST_SUITE_P(
    Cells, WorkStealingProperty,
    ::testing::Values(WsCell{0, 1}, WsCell{0, 2}, WsCell{1, 3}, WsCell{2, 4},
                      WsCell{4, 5}, WsCell{8, 6}, WsCell{16, 7},
                      WsCell{32, 8}));

}  // namespace
}  // namespace pjsched
