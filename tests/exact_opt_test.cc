// Tests for the exact optimal max-flow search (src/sched/exact_opt.h) and
// the sandwich property it certifies:  lower bounds <= OPT <= schedulers.
#include "src/sched/exact_opt.h"

#include <gtest/gtest.h>

#include "src/core/bounds.h"
#include "src/core/run.h"
#include "src/dag/builders.h"
#include "tests/test_util.h"

namespace pjsched {
namespace {

using testutil::make_instance;

TEST(ExactOptTest, SingleChainIsItsSpan) {
  auto inst = make_instance({{0.0, dag::serial_chain(5, 1)}});
  EXPECT_DOUBLE_EQ(sched::exact_optimal_max_flow(inst, 3).max_flow, 5.0);
}

TEST(ExactOptTest, IndependentNodesPackPerfectly) {
  // 6 unit nodes on m = 3: two steps.
  dag::Dag d;
  for (int i = 0; i < 6; ++i) d.add_node(1);
  d.seal();
  auto inst = make_instance({{0.0, std::move(d)}});
  EXPECT_DOUBLE_EQ(sched::exact_optimal_max_flow(inst, 3).max_flow, 2.0);
}

TEST(ExactOptTest, SectionFiveStarIsTwo) {
  // The Lemma 5.1 argument: OPT finishes star(c) in exactly 2 when c <= m.
  auto inst = make_instance({{0.0, dag::star(4)}});
  EXPECT_DOUBLE_EQ(sched::exact_optimal_max_flow(inst, 4).max_flow, 2.0);
  // With m = 2 the children take 2 steps: flow 3.
  EXPECT_DOUBLE_EQ(sched::exact_optimal_max_flow(inst, 2).max_flow, 3.0);
}

TEST(ExactOptTest, OptCanBeatFifoByReordering) {
  // Two jobs at t=0: a 3-chain and a 1-node job, m = 1.  FIFO (by index)
  // runs the chain first: flows {3, 4}.  OPT runs the short job first:
  // flows {4, 1} -> max 4 either way... sharpen: chain length 4 and two
  // short jobs makes the ordering matter for max flow.
  auto inst = make_instance({
      {0.0, dag::serial_chain(2, 1)},
      {1.0, dag::single_node(1)},
  });
  const double opt = sched::exact_optimal_max_flow(inst, 1).max_flow;
  // OPT: chain at [0,2), short at [2,3): flows {2, 2} -> 2.
  EXPECT_DOUBLE_EQ(opt, 2.0);
}

TEST(ExactOptTest, SandwichOnRandomTinyInstances) {
  // bounds <= exact OPT <= every scheduler, across random unit-work
  // instances.
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    sim::Rng rng(seed * 13 + 1);
    core::Instance inst;
    const int jobs = 2 + static_cast<int>(rng.uniform_int(2));
    for (int j = 0; j < jobs; ++j) {
      dag::RandomLayeredOptions opt;
      opt.layers = 1 + static_cast<std::size_t>(rng.uniform_int(3));
      opt.min_width = 1;
      opt.max_width = 2;
      opt.min_work = 1;
      opt.max_work = 1;  // unit-work nodes
      opt.edge_probability = 0.5;
      core::JobSpec spec;
      spec.arrival = static_cast<double>(rng.uniform_int(4));
      spec.graph = dag::random_layered(rng, opt);
      inst.jobs.push_back(std::move(spec));
    }
    const unsigned m = 1 + static_cast<unsigned>(rng.uniform_int(3));

    const double opt = sched::exact_optimal_max_flow(inst, m).max_flow;

    EXPECT_GE(opt + 1e-9, core::lower_bounds(inst, m).combined)
        << "seed " << seed;
    for (const char* name : {"fifo", "bwf", "sjf", "lifo", "equi",
                             "admit-first"}) {
      auto spec = core::parse_scheduler(name);
      spec.seed = seed + 1;
      const auto res = core::run_scheduler(inst, spec, {m, 1.0});
      EXPECT_GE(res.max_flow + 1e-9, opt)
          << name << " beat exact OPT at seed " << seed;
    }
  }
}

TEST(ExactOptTest, RestrictionsEnforced) {
  // Non-unit work.
  auto heavy = make_instance({{0.0, dag::single_node(3)}});
  EXPECT_THROW(sched::exact_optimal_max_flow(heavy, 1),
               std::invalid_argument);
  // Fractional arrival.
  auto frac = make_instance({{0.5, dag::single_node(1)}});
  EXPECT_THROW(sched::exact_optimal_max_flow(frac, 1), std::invalid_argument);
  // Too many nodes.
  auto big = make_instance({{0.0, dag::star(30)}});
  EXPECT_THROW(sched::exact_optimal_max_flow(big, 2), std::invalid_argument);
  // Zero processors.
  auto ok = make_instance({{0.0, dag::single_node(1)}});
  EXPECT_THROW(sched::exact_optimal_max_flow(ok, 0), std::invalid_argument);
}

TEST(ExactOptTest, StateLimitGuards) {
  auto inst = make_instance({
      {0.0, dag::star(10)},
      {0.0, dag::star(10)},
  });
  EXPECT_THROW(sched::exact_optimal_max_flow(inst, 3, /*state_limit=*/5),
               std::runtime_error);
}

TEST(ExactOptTest, LateArrivalCountsFromRelease) {
  auto inst = make_instance({{7.0, dag::single_node(1)}});
  EXPECT_DOUBLE_EQ(sched::exact_optimal_max_flow(inst, 1).max_flow, 1.0);
}

}  // namespace
}  // namespace pjsched
