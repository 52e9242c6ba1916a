// Parameterized fuzz sweeps: random fork-join programs and random layered
// DAGs are pushed through serialization round trips, the schedulers, and
// the audit — broad randomized coverage across module boundaries.
#include <gtest/gtest.h>

#include "src/core/run.h"
#include "src/dag/builders.h"
#include "src/dag/serialize.h"
#include "src/metrics/audit.h"
#include "src/workload/instance_io.h"
#include "tests/dag_oracles.h"
#include "tests/test_util.h"

namespace pjsched {
namespace {

class ForkJoinFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ForkJoinFuzz, StructureAndSerializationRoundTrip) {
  sim::Rng rng(GetParam() * 101 + 7);
  dag::RandomForkJoinOptions opt;
  opt.max_depth = 1 + static_cast<std::size_t>(rng.uniform_int(4));
  opt.fork_probability = rng.uniform_double();
  const dag::Dag d = dag::random_fork_join(rng, opt);

  // Series-parallel programs have exactly one source and one sink.
  EXPECT_EQ(d.sources().size(), 1u);
  std::size_t sinks = 0;
  for (dag::NodeId v = 0; v < d.node_count(); ++v)
    if (d.out_degree(v) == 0) ++sinks;
  EXPECT_EQ(sinks, 1u);
  EXPECT_EQ(d.critical_path(), testutil::compute_critical_path(d));

  // Text round trip preserves everything that matters.
  const dag::Dag back = dag::from_text(dag::to_text(d));
  EXPECT_EQ(back.node_count(), d.node_count());
  EXPECT_EQ(back.edge_count(), d.edge_count());
  EXPECT_EQ(back.total_work(), d.total_work());
  EXPECT_EQ(back.critical_path(), d.critical_path());
}

TEST_P(ForkJoinFuzz, ScheduledAndAuditedAcrossEngines) {
  sim::Rng rng(GetParam() * 59 + 3);
  core::Instance inst;
  const int jobs = 2 + static_cast<int>(rng.uniform_int(4));
  for (int j = 0; j < jobs; ++j) {
    dag::RandomForkJoinOptions opt;
    opt.max_depth = 1 + static_cast<std::size_t>(rng.uniform_int(3));
    core::JobSpec spec;
    spec.arrival = 10.0 * rng.uniform_double();
    spec.weight = 1.0 + static_cast<double>(rng.uniform_int(4));
    spec.graph = dag::random_fork_join(rng, opt);
    inst.jobs.push_back(std::move(spec));
  }

  // Instance round trip.
  const auto back = workload::instance_from_text(
      workload::instance_to_text(inst));
  EXPECT_EQ(back.total_work(), inst.total_work());

  const unsigned m = 1 + static_cast<unsigned>(rng.uniform_int(4));
  for (const char* name : {"fifo", "bwf", "equi", "admit-first",
                           "steal-2-first-bwf"}) {
    auto spec = core::parse_scheduler(name);
    spec.seed = GetParam() + 1;
    sim::Trace trace;
    const auto res = core::run_scheduler(inst, spec, {m, 1.0}, &trace);
    const auto report =
        metrics::audit_schedule(inst, {m, 1.0}, trace, res.completion);
    ASSERT_TRUE(report.ok) << name << "\n" << report.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForkJoinFuzz,
                         ::testing::Range<std::uint64_t>(0, 20));

TEST(ForkJoinBuilderTest, BadOptionsRejected) {
  sim::Rng rng(1);
  dag::RandomForkJoinOptions opt;
  opt.max_depth = 0;
  EXPECT_THROW(dag::random_fork_join(rng, opt), std::invalid_argument);
  opt = {};
  opt.min_fanout = 0;
  EXPECT_THROW(dag::random_fork_join(rng, opt), std::invalid_argument);
  opt = {};
  opt.min_work = 5;
  opt.max_work = 2;
  EXPECT_THROW(dag::random_fork_join(rng, opt), std::invalid_argument);
  opt = {};
  opt.fork_probability = 2.0;
  EXPECT_THROW(dag::random_fork_join(rng, opt), std::invalid_argument);
}

TEST(ForkJoinBuilderTest, ZeroForkProbabilityIsSingleLeaf) {
  sim::Rng rng(2);
  dag::RandomForkJoinOptions opt;
  opt.fork_probability = 0.0;
  const dag::Dag d = dag::random_fork_join(rng, opt);
  EXPECT_EQ(d.node_count(), 1u);
}

}  // namespace
}  // namespace pjsched
