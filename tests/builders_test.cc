// Tests for the DAG builders (src/dag/builders.h), including parameterized
// property sweeps over random layered DAGs.
#include "src/dag/builders.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "tests/dag_oracles.h"

namespace pjsched::dag {
namespace {

TEST(SerialChainTest, WorkAndSpan) {
  const Dag d = serial_chain(5, 3);
  EXPECT_EQ(d.node_count(), 5u);
  EXPECT_EQ(d.edge_count(), 4u);
  EXPECT_EQ(d.total_work(), 15u);
  EXPECT_EQ(d.critical_path(), 15u);
  EXPECT_DOUBLE_EQ(d.parallelism(), 1.0);
}

TEST(SerialChainTest, LengthOne) {
  const Dag d = serial_chain(1, 9);
  EXPECT_EQ(d.node_count(), 1u);
  EXPECT_EQ(d.critical_path(), 9u);
}

TEST(SerialChainTest, ZeroLengthRejected) {
  EXPECT_THROW(serial_chain(0, 1), std::invalid_argument);
}

TEST(SingleNodeTest, Basic) {
  const Dag d = single_node(42);
  EXPECT_EQ(d.node_count(), 1u);
  EXPECT_EQ(d.total_work(), 42u);
}

TEST(ParallelForTest, Shape) {
  const Dag d = parallel_for_dag(8, 10, 2, 3);
  EXPECT_EQ(d.node_count(), 10u);   // root + 8 bodies + join
  EXPECT_EQ(d.edge_count(), 16u);
  EXPECT_EQ(d.total_work(), 2u + 8 * 10 + 3u);
  EXPECT_EQ(d.critical_path(), 2u + 10u + 3u);
  // Exactly one source (the root).
  EXPECT_EQ(d.sources().size(), 1u);
  EXPECT_EQ(d.out_degree(d.sources()[0]), 8u);
}

TEST(ParallelForTest, PerGrainWorkCallback) {
  const Dag d = parallel_for_dag_fn(
      4, [](std::size_t i) { return static_cast<Work>(i + 1); }, 1, 1);
  EXPECT_EQ(d.total_work(), 1u + (1 + 2 + 3 + 4) + 1u);
  EXPECT_EQ(d.critical_path(), 1u + 4u + 1u);  // longest grain is 4
}

TEST(ParallelForTest, ZeroGrainsRejected) {
  EXPECT_THROW(parallel_for_dag(0, 1), std::invalid_argument);
}

TEST(DivideAndConquerTest, DepthZeroIsLeaf) {
  const Dag d = divide_and_conquer(0, 5);
  EXPECT_EQ(d.node_count(), 1u);
  EXPECT_EQ(d.total_work(), 5u);
}

TEST(DivideAndConquerTest, CountsAndSpan) {
  // depth 3: 2^3 = 8 leaves; 2^3 - 1 = 7 fork nodes and 7 join nodes.
  const Dag d = divide_and_conquer(3, 4);
  EXPECT_EQ(d.node_count(), 8u + 7u + 7u);
  EXPECT_EQ(d.total_work(), 8u * 4 + 14u);
  // Span: 3 forks + leaf + 3 joins = 3 + 4 + 3.
  EXPECT_EQ(d.critical_path(), 10u);
  EXPECT_EQ(d.sources().size(), 1u);
}

TEST(StarTest, SectionFiveJobShape) {
  // One unit root preceding c independent unit tasks: W = c+1, P = 2.
  const Dag d = star(4);
  EXPECT_EQ(d.node_count(), 5u);
  EXPECT_EQ(d.total_work(), 5u);
  EXPECT_EQ(d.critical_path(), 2u);
  EXPECT_EQ(d.sources().size(), 1u);
  EXPECT_EQ(d.out_degree(0), 4u);
  for (NodeId v = 1; v <= 4; ++v) {
    EXPECT_EQ(d.in_degree(v), 1u);
    EXPECT_EQ(d.out_degree(v), 0u);
  }
}

TEST(StarTest, ZeroChildrenRejected) {
  EXPECT_THROW(star(0), std::invalid_argument);
}

TEST(RandomLayeredTest, InvalidOptionsRejected) {
  sim::Rng rng(1);
  RandomLayeredOptions opt;
  opt.layers = 0;
  EXPECT_THROW(random_layered(rng, opt), std::invalid_argument);
  opt = {};
  opt.min_width = 5;
  opt.max_width = 2;
  EXPECT_THROW(random_layered(rng, opt), std::invalid_argument);
  opt = {};
  opt.edge_probability = 1.5;
  EXPECT_THROW(random_layered(rng, opt), std::invalid_argument);
  opt = {};
  opt.min_work = 9;
  opt.max_work = 3;
  EXPECT_THROW(random_layered(rng, opt), std::invalid_argument);
}

TEST(RandomLayeredTest, DeterministicGivenSeed) {
  RandomLayeredOptions opt;
  opt.layers = 5;
  opt.max_width = 6;
  sim::Rng r1(99), r2(99);
  const Dag a = random_layered(r1, opt);
  const Dag b = random_layered(r2, opt);
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  EXPECT_EQ(a.total_work(), b.total_work());
  EXPECT_EQ(a.critical_path(), b.critical_path());
}

TEST(OracleTest, MatchesSealCache) {
  // Diamond with unequal branches: W = 2 + 3 + 5 + 1, P = 2 + 5 + 1.
  Dag d;
  d.add_node(2);
  d.add_node(3);
  d.add_node(5);
  d.add_node(1);
  d.add_edge(0, 1);
  d.add_edge(0, 2);
  d.add_edge(1, 3);
  d.add_edge(2, 3);
  d.seal();
  EXPECT_EQ(testutil::compute_total_work(d), 11u);
  EXPECT_EQ(testutil::compute_critical_path(d), 8u);
  EXPECT_EQ(testutil::compute_total_work(d), d.total_work());
  EXPECT_EQ(testutil::compute_critical_path(d), d.critical_path());
}

// Property sweep: structural invariants across many random DAGs.
class RandomLayeredProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomLayeredProperty, StructuralInvariants) {
  sim::Rng rng(GetParam());
  RandomLayeredOptions opt;
  opt.layers = 1 + static_cast<std::size_t>(rng.uniform_int(6));
  opt.min_width = 1;
  opt.max_width = 5;
  opt.min_work = 1;
  opt.max_work = 10;
  opt.edge_probability = rng.uniform_double();
  const Dag d = random_layered(rng, opt);

  EXPECT_TRUE(d.sealed());
  EXPECT_GE(d.node_count(), opt.layers);           // >= 1 node per layer
  EXPECT_LE(d.node_count(), opt.layers * opt.max_width);

  // Cached values agree with independent recomputation.
  EXPECT_EQ(d.total_work(), testutil::compute_total_work(d));
  EXPECT_EQ(d.critical_path(), testutil::compute_critical_path(d));

  // Depth really is `layers`: the critical path has at least `layers`
  // nodes' worth of minimum work.
  EXPECT_GE(d.critical_path(), opt.layers * opt.min_work);

  // Work bounds per node respected.
  for (NodeId v = 0; v < d.node_count(); ++v) {
    EXPECT_GE(d.work_of(v), opt.min_work);
    EXPECT_LE(d.work_of(v), opt.max_work);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLayeredProperty,
                         ::testing::Range<std::uint64_t>(0, 25));

}  // namespace
}  // namespace pjsched::dag
