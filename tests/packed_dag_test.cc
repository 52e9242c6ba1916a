// PackedDag is the SoA execution layout the job arena runs; the engines'
// bit-identity depends on its frontier behaving *exactly* like the plain
// reference frontier in tests/ready_tracker.h.  These tests drive both
// through identical randomized claim/complete schedules and compare every
// observable at every step, pin the grow-only slot-reuse contract whose
// allocations tests/scaling_test.cc counts, and check the error paths.
#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/dag/builders.h"
#include "src/dag/dag.h"
#include "src/sim/packed_dag.h"
#include "src/sim/rng.h"
#include "tests/ready_tracker.h"

namespace pjsched {
namespace {

// Runs `packed` (already holding `d`) and a fresh ReadyTracker through the
// same randomized interleaving of claims (mostly the frontier head, the
// engines' pattern, but sometimes mid-frontier) and completions, asserting
// after every operation that the two expose identical frontiers.
void lockstep(const dag::Dag& d, sim::PackedDag& packed, std::uint64_t seed) {
  testutil::ReadyTracker tracker(d);
  sim::Rng rng(seed);
  std::vector<dag::NodeId> claimed;
  std::vector<dag::NodeId> enabled_p, enabled_t;

  EXPECT_TRUE(packed.bound());
  EXPECT_EQ(packed.node_count(), d.node_count());
  EXPECT_EQ(packed.total_work(), d.total_work());
  EXPECT_EQ(packed.critical_path(), d.critical_path());

  while (!packed.done() || !claimed.empty()) {
    ASSERT_EQ(packed.done(), tracker.done());
    ASSERT_EQ(packed.ready_count(), tracker.ready_count());
    ASSERT_EQ(packed.completed_count(), tracker.completed_count());
    const auto pr = packed.ready();
    const auto tr = tracker.ready();
    for (std::size_t i = 0; i < pr.size(); ++i) {
      ASSERT_EQ(pr[i], tr[i]) << "frontier position " << i;
    }

    const bool can_claim = packed.ready_count() > 0;
    const bool do_claim =
        can_claim && (claimed.empty() || rng.uniform_double() < 0.6);
    if (do_claim) {
      const std::size_t idx =
          rng.uniform_double() < 0.8
              ? 0
              : static_cast<std::size_t>(rng.uniform_int(pr.size()));
      const dag::NodeId v = pr[idx];
      EXPECT_EQ(packed.work_of(v), d.work_of(v));
      const auto ps = packed.successors(v);
      const auto ds = d.successors(v);
      ASSERT_EQ(ps.size(), ds.size());
      for (std::size_t i = 0; i < ps.size(); ++i) EXPECT_EQ(ps[i], ds[i]);
      packed.claim(v);
      tracker.claim(v);
      claimed.push_back(v);
    } else {
      const std::size_t idx =
          static_cast<std::size_t>(rng.uniform_int(claimed.size()));
      const dag::NodeId v = claimed[idx];
      claimed.erase(claimed.begin() + static_cast<std::ptrdiff_t>(idx));
      enabled_p.clear();
      enabled_t.clear();
      EXPECT_EQ(packed.complete(v, &enabled_p),
                tracker.complete(v, &enabled_t));
      ASSERT_EQ(enabled_p, enabled_t);
    }
  }
  EXPECT_TRUE(packed.done());
  EXPECT_TRUE(tracker.done());
  EXPECT_EQ(packed.completed_count(), d.node_count());
}

TEST(PackedDagTest, LockstepOnCanonicalShapes) {
  const dag::Dag shapes[] = {
      dag::serial_chain(12, 3),
      dag::single_node(7),
      dag::parallel_for_dag(16, 5),
      dag::divide_and_conquer(4, 2),
      dag::star(10),
  };
  for (const dag::Dag& d : shapes) {
    SCOPED_TRACE(d.node_count());
    sim::PackedDag packed;
    packed.assign(d);
    lockstep(d, packed, 0x5eedULL + d.node_count());
  }
}

TEST(PackedDagTest, LockstepOnRandomDags) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    sim::Rng gen(seed);
    dag::RandomForkJoinOptions fj;
    fj.max_depth = 5;
    const dag::Dag a = dag::random_fork_join(gen, fj);
    dag::RandomLayeredOptions ly;
    ly.layers = 6;
    ly.max_width = 6;
    const dag::Dag b = dag::random_layered(gen, ly);
    sim::PackedDag packed;
    packed.assign(a);
    lockstep(a, packed, seed * 31);
    packed.assign(b);  // re-assign without release(): legal
    lockstep(b, packed, seed * 31 + 1);
  }
}

// The arena recycles one PackedDag per slot: successive occupants must see
// a fully restarted frontier, and a smaller DAG after a larger one must not
// leak the previous occupant's nodes.
TEST(PackedDagTest, SlotReuseRestartsCleanly) {
  sim::PackedDag packed;
  const dag::Dag big = dag::parallel_for_dag(64, 3);
  const dag::Dag small = dag::serial_chain(3, 9);

  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE(round);
    packed.assign(big);
    lockstep(big, packed, 100 + round);
    packed.release();
    EXPECT_FALSE(packed.bound());

    packed.assign(small);
    EXPECT_EQ(packed.node_count(), small.node_count());
    EXPECT_EQ(packed.ready_count(), 1u);  // one chain head, nothing stale
    lockstep(small, packed, 200 + round);
    packed.release();
  }
}

// Grow-only storage: once a slot has held a DAG, re-assigning one no larger
// must not reallocate the packed arrays (vector::assign reuses capacity).
// Observed through data() stability, the strongest portable proxy.
TEST(PackedDagTest, ReassignReusesCapacity) {
  sim::PackedDag packed;
  const dag::Dag d = dag::divide_and_conquer(5, 4);
  packed.assign(d);
  const dag::NodeId* succ_before = packed.successors(0).data();
  const auto ready_before = packed.ready().data();
  packed.release();
  packed.assign(d);
  EXPECT_EQ(packed.successors(0).data(), succ_before);
  EXPECT_EQ(packed.ready().data(), ready_before);
}

TEST(PackedDagTest, AssignRejectsUnsealedDag) {
  dag::Dag d;
  d.add_node(1);
  sim::PackedDag packed;
  EXPECT_THROW(packed.assign(d), std::invalid_argument);
}

TEST(PackedDagTest, ClaimRejectsNonReadyNode) {
  const dag::Dag d = dag::serial_chain(3, 1);
  sim::PackedDag packed;
  packed.assign(d);
  try {
    packed.claim(1);  // blocked behind node 0
    FAIL() << "claim of a blocked node must throw";
  } catch (const std::logic_error& e) {
    EXPECT_EQ(std::string(e.what()), "PackedDag::claim: node is not ready");
  }
  packed.claim(0);
  EXPECT_THROW(packed.claim(0), std::logic_error);  // already claimed
  EXPECT_THROW(packed.claim(99), std::logic_error);  // out of range
}

TEST(PackedDagTest, CompleteRejectsUnclaimedNode) {
  const dag::Dag d = dag::serial_chain(2, 1);
  sim::PackedDag packed;
  packed.assign(d);
  try {
    packed.complete(0);  // ready but never claimed
    FAIL() << "complete of an unclaimed node must throw";
  } catch (const std::logic_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "PackedDag::complete: node was not claimed");
  }
  packed.claim(0);
  EXPECT_EQ(packed.complete(0), 1u);  // enables node 1
  EXPECT_THROW(packed.complete(0), std::logic_error);  // already done
  EXPECT_THROW(packed.complete(99), std::logic_error);  // out of range
}

}  // namespace
}  // namespace pjsched
