// Unit tests for the DAG job model (src/dag/dag.h): construction, sealing
// validation, cached work/span, and the dynamically unfolding frontier of
// PackedDag's reference, tests/ready_tracker.h.
#include "src/dag/dag.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "src/dag/builders.h"
#include "src/sim/rng.h"
#include "tests/ready_tracker.h"

namespace pjsched::dag {
namespace {

using testutil::ReadyTracker;

Dag diamond() {
  //    0(2)
  //   /    \    edges 0->1, 0->2
  // 1(3)  2(5)
  //   \    /    edges 1->3, 2->3
  //    3(1)
  Dag d;
  const NodeId a = d.add_node(2);
  const NodeId b = d.add_node(3);
  const NodeId c = d.add_node(5);
  const NodeId e = d.add_node(1);
  d.add_edge(a, b);
  d.add_edge(a, c);
  d.add_edge(b, e);
  d.add_edge(c, e);
  d.seal();
  return d;
}

TEST(DagTest, AddNodeReturnsSequentialIds) {
  Dag d;
  EXPECT_EQ(d.add_node(1), 0u);
  EXPECT_EQ(d.add_node(2), 1u);
  EXPECT_EQ(d.add_node(3), 2u);
  EXPECT_EQ(d.node_count(), 3u);
}

TEST(DagTest, ZeroWorkNodeRejected) {
  Dag d;
  EXPECT_THROW(d.add_node(0), std::invalid_argument);
}

TEST(DagTest, SelfLoopRejected) {
  Dag d;
  d.add_node(1);
  EXPECT_THROW(d.add_edge(0, 0), std::invalid_argument);
}

TEST(DagTest, OutOfRangeEdgeRejected) {
  Dag d;
  d.add_node(1);
  EXPECT_THROW(d.add_edge(0, 1), std::invalid_argument);
  EXPECT_THROW(d.add_edge(5, 0), std::invalid_argument);
}

TEST(DagTest, EmptyDagCannotSeal) {
  Dag d;
  EXPECT_THROW(d.seal(), std::invalid_argument);
}

TEST(DagTest, DuplicateEdgeRejectedAtSeal) {
  Dag d;
  d.add_node(1);
  d.add_node(1);
  d.add_edge(0, 1);
  d.add_edge(0, 1);
  EXPECT_THROW(d.seal(), std::invalid_argument);
}

TEST(DagTest, CycleRejectedAtSeal) {
  Dag d;
  d.add_node(1);
  d.add_node(1);
  d.add_node(1);
  d.add_edge(0, 1);
  d.add_edge(1, 2);
  d.add_edge(2, 0);
  EXPECT_THROW(d.seal(), std::invalid_argument);
}

TEST(DagTest, MutationAfterSealRejected) {
  Dag d;
  d.add_node(1);
  d.seal();
  EXPECT_THROW(d.add_node(1), std::logic_error);
  EXPECT_THROW(d.seal(), std::logic_error);
}

TEST(DagTest, DiamondStructure) {
  const Dag d = diamond();
  EXPECT_TRUE(d.sealed());
  EXPECT_EQ(d.node_count(), 4u);
  EXPECT_EQ(d.edge_count(), 4u);
  EXPECT_EQ(d.total_work(), 11u);
  // Longest path 0 -> 2 -> 3 = 2 + 5 + 1.
  EXPECT_EQ(d.critical_path(), 8u);
  EXPECT_DOUBLE_EQ(d.parallelism(), 11.0 / 8.0);

  ASSERT_EQ(d.sources().size(), 1u);
  EXPECT_EQ(d.sources()[0], 0u);

  const auto succ0 = d.successors(0);
  EXPECT_EQ(std::vector<NodeId>(succ0.begin(), succ0.end()),
            (std::vector<NodeId>{1, 2}));
  const auto pred3 = d.predecessors(3);
  EXPECT_EQ(std::vector<NodeId>(pred3.begin(), pred3.end()),
            (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(d.in_degree(0), 0u);
  EXPECT_EQ(d.out_degree(0), 2u);
  EXPECT_EQ(d.in_degree(3), 2u);
  EXPECT_EQ(d.out_degree(3), 0u);
}

TEST(DagTest, SingleNodeDag) {
  Dag d;
  d.add_node(7);
  d.seal();
  EXPECT_EQ(d.total_work(), 7u);
  EXPECT_EQ(d.critical_path(), 7u);
  EXPECT_EQ(d.sources().size(), 1u);
}

TEST(DagTest, ChainCriticalPathEqualsTotalWork) {
  Dag d;
  NodeId prev = d.add_node(4);
  for (int i = 0; i < 9; ++i) {
    const NodeId cur = d.add_node(4);
    d.add_edge(prev, cur);
    prev = cur;
  }
  d.seal();
  EXPECT_EQ(d.total_work(), 40u);
  EXPECT_EQ(d.critical_path(), 40u);
}

TEST(DagTest, WideIndependentNodes) {
  Dag d;
  for (int i = 0; i < 16; ++i) d.add_node(3);
  d.seal();
  EXPECT_EQ(d.total_work(), 48u);
  EXPECT_EQ(d.critical_path(), 3u);
  EXPECT_EQ(d.sources().size(), 16u);
}

// --- CSR constructor ---

void expect_same_dag(const Dag& a, const Dag& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  EXPECT_EQ(a.sealed(), b.sealed());
  EXPECT_EQ(a.edge_count(), b.edge_count());
  for (NodeId v = 0; v < a.node_count(); ++v) {
    EXPECT_EQ(a.work_of(v), b.work_of(v));
    const auto sa = a.successors(v), sb = b.successors(v);
    EXPECT_EQ(std::vector<NodeId>(sa.begin(), sa.end()),
              std::vector<NodeId>(sb.begin(), sb.end()));
    const auto pa = a.predecessors(v), pb = b.predecessors(v);
    EXPECT_EQ(std::vector<NodeId>(pa.begin(), pa.end()),
              std::vector<NodeId>(pb.begin(), pb.end()));
  }
  EXPECT_EQ(std::vector<NodeId>(a.sources().begin(), a.sources().end()),
            std::vector<NodeId>(b.sources().begin(), b.sources().end()));
  EXPECT_EQ(a.total_work(), b.total_work());
  EXPECT_EQ(a.critical_path(), b.critical_path());
}

/// `d`'s successor lists handed to the CSR constructor, each node's list
/// reversed so the constructor has to order it.
Dag rebuild_from_csr(const Dag& d) {
  std::vector<Work> work;
  std::vector<std::uint32_t> succ_off{0};
  std::vector<NodeId> succ;
  for (NodeId v = 0; v < d.node_count(); ++v) {
    work.push_back(d.work_of(v));
    const auto out = d.successors(v);
    succ.insert(succ.end(), out.rbegin(), out.rend());
    succ_off.push_back(static_cast<std::uint32_t>(succ.size()));
  }
  return Dag(std::move(work), std::move(succ_off), std::move(succ));
}

TEST(DagCsrTest, ConstructorMatchesSealOnRandomShapes) {
  sim::Rng rng(2016);
  for (int trial = 0; trial < 20; ++trial) {
    RandomLayeredOptions layered;
    layered.layers = 2 + trial % 5;
    layered.max_width = 6;
    const Dag a = random_layered(rng, layered);
    expect_same_dag(a, rebuild_from_csr(a));
    RandomForkJoinOptions fork_join;
    fork_join.max_fanout = 4;
    const Dag b = random_fork_join(rng, fork_join);
    expect_same_dag(b, rebuild_from_csr(b));
  }
  for (std::size_t depth = 0; depth <= 5; ++depth) {
    const Dag c = divide_and_conquer(depth, 3);
    expect_same_dag(c, rebuild_from_csr(c));
  }
}

TEST(DagCsrTest, ConstructorRejectsEachFault) {
  // Empty graph, zero work.
  EXPECT_THROW(Dag({}, {0}, {}), std::invalid_argument);
  EXPECT_THROW(Dag({1, 0}, {0, 0, 0}, {}), std::invalid_argument);
  // Offsets: wrong size, not monotone, not from 0, not ending at the edge
  // count.
  EXPECT_THROW(Dag({1, 1}, {0, 1}, {1}), std::invalid_argument);
  EXPECT_THROW(Dag({1, 1, 1}, {0, 2, 1, 2}, {1, 2}), std::invalid_argument);
  EXPECT_THROW(Dag({1, 1}, {1, 1, 1}, {1}), std::invalid_argument);
  EXPECT_THROW(Dag({1, 1}, {0, 1, 1}, {1, 0}), std::invalid_argument);
  // Endpoint out of range, self loop.
  EXPECT_THROW(Dag({1, 1}, {0, 1, 1}, {2}), std::invalid_argument);
  EXPECT_THROW(Dag({1, 1}, {0, 1, 1}, {0}), std::invalid_argument);
  // Duplicate successor, cycle.
  EXPECT_THROW(Dag({1, 1}, {0, 2, 2}, {1, 1}), std::invalid_argument);
  EXPECT_THROW(Dag({1, 1, 1}, {0, 1, 2, 3}, {1, 2, 0}),
               std::invalid_argument);
}

TEST(DagCsrTest, ConstructedDagIsSealed) {
  Dag d({4, 2}, {0, 1, 1}, {1});
  EXPECT_TRUE(d.sealed());
  EXPECT_THROW(d.seal(), std::logic_error);
  EXPECT_THROW(d.add_edge(1, 0), std::logic_error);
  EXPECT_THROW(d.add_node(1), std::logic_error);
}

// --- ReadyTracker ---

TEST(ReadyTrackerTest, RequiresSealedDag) {
  Dag d;
  d.add_node(1);
  EXPECT_THROW(ReadyTracker t(d), std::invalid_argument);
}

TEST(ReadyTrackerTest, InitialReadySetIsSources) {
  const Dag d = diamond();
  ReadyTracker t(d);
  ASSERT_EQ(t.ready_count(), 1u);
  EXPECT_EQ(t.ready()[0], 0u);
  EXPECT_FALSE(t.done());
  EXPECT_EQ(t.completed_count(), 0u);
}

TEST(ReadyTrackerTest, DiamondUnfoldsInOrder) {
  const Dag d = diamond();
  ReadyTracker t(d);
  t.claim(0);
  EXPECT_EQ(t.ready_count(), 0u);

  std::vector<NodeId> enabled;
  EXPECT_EQ(t.complete(0, &enabled), 2u);
  EXPECT_EQ(enabled, (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(t.ready_count(), 2u);

  t.claim(1);
  t.claim(2);
  EXPECT_EQ(t.complete(1), 0u);  // node 3 still blocked on 2
  EXPECT_EQ(t.ready_count(), 0u);
  EXPECT_EQ(t.complete(2), 1u);  // now 3 unblocks
  ASSERT_EQ(t.ready_count(), 1u);
  EXPECT_EQ(t.ready()[0], 3u);

  t.claim(3);
  t.complete(3);
  EXPECT_TRUE(t.done());
  EXPECT_EQ(t.completed_count(), 4u);
}

TEST(ReadyTrackerTest, ClaimUnreadyNodeRejected) {
  const Dag d = diamond();
  ReadyTracker t(d);
  EXPECT_THROW(t.claim(3), std::logic_error);   // blocked
  t.claim(0);
  EXPECT_THROW(t.claim(0), std::logic_error);   // already claimed
}

TEST(ReadyTrackerTest, CompleteUnclaimedNodeRejected) {
  const Dag d = diamond();
  ReadyTracker t(d);
  EXPECT_THROW(t.complete(0), std::logic_error);  // never claimed
  t.claim(0);
  t.complete(0);
  EXPECT_THROW(t.complete(0), std::logic_error);  // double complete
}

TEST(ReadyTrackerTest, NonClairvoyance_OnlyFrontierVisible) {
  // The tracker exposes ready nodes only: before node 0 completes, nodes
  // 1..3 of the diamond are invisible to a scheduler.
  const Dag d = diamond();
  ReadyTracker t(d);
  const auto ready = t.ready();
  EXPECT_EQ(std::count(ready.begin(), ready.end(), 1u), 0);
  EXPECT_EQ(std::count(ready.begin(), ready.end(), 2u), 0);
  EXPECT_EQ(std::count(ready.begin(), ready.end(), 3u), 0);
}

TEST(ReadyTrackerTest, IndependentTrackersShareOneDag) {
  const Dag d = diamond();
  ReadyTracker t1(d);
  ReadyTracker t2(d);
  t1.claim(0);
  t1.complete(0);
  // t2 is unaffected by t1's progress.
  EXPECT_EQ(t2.ready_count(), 1u);
  EXPECT_EQ(t2.completed_count(), 0u);
}

}  // namespace
}  // namespace pjsched::dag
