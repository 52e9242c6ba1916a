// Tests for executing dag::Dag jobs on the real thread pool
// (src/runtime/dag_executor.h).
#include "src/runtime/dag_executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <vector>

#include "src/dag/builders.h"
#include "src/dag/compose.h"

namespace pjsched::runtime {
namespace {

// Records execution order with a lock; verifies precedence afterwards.
struct OrderRecorder {
  std::mutex mu;
  std::vector<dag::NodeId> order;

  NodeBody body() {
    return [this](dag::NodeId v, dag::Work) {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(v);
    };
  }

  // Position of each node in the observed order.
  std::vector<std::size_t> positions(std::size_t n) {
    std::vector<std::size_t> pos(n, 0);
    for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
    return pos;
  }
};

TEST(DagExecutorTest, EveryNodeRunsExactlyOnce) {
  ThreadPool pool({.workers = 3, .steal_k = 0, .seed = 1});
  const dag::Dag graph = dag::parallel_for_dag(16, 2);
  std::atomic<int> runs{0};
  auto job =
      submit_dag(pool, graph, [&](dag::NodeId, dag::Work) { runs.fetch_add(1); });
  job->wait();
  EXPECT_EQ(runs.load(), static_cast<int>(graph.node_count()));
}

TEST(DagExecutorTest, PrecedenceRespected) {
  ThreadPool pool({.workers = 4, .steal_k = 0, .seed = 2});
  const dag::Dag graph =
      dag::sequence(dag::parallel_for_dag(6, 1), dag::divide_and_conquer(3, 2));
  OrderRecorder rec;
  auto job = submit_dag(pool, graph, rec.body());
  job->wait();
  ASSERT_EQ(rec.order.size(), graph.node_count());
  const auto pos = rec.positions(graph.node_count());
  for (dag::NodeId u = 0; u < graph.node_count(); ++u)
    for (dag::NodeId v : graph.successors(u))
      EXPECT_LT(pos[u], pos[v]) << "edge " << u << "->" << v;
}

TEST(DagExecutorTest, DiamondJoinWaitsForBothBranches) {
  ThreadPool pool({.workers = 2, .steal_k = 0, .seed = 3});
  dag::Dag d;
  d.add_node(1);
  d.add_node(1);
  d.add_node(1);
  d.add_node(1);
  d.add_edge(0, 1);
  d.add_edge(0, 2);
  d.add_edge(1, 3);
  d.add_edge(2, 3);
  d.seal();
  OrderRecorder rec;
  auto job = submit_dag(pool, d, rec.body());
  job->wait();
  const auto pos = rec.positions(4);
  EXPECT_LT(pos[0], pos[1]);
  EXPECT_LT(pos[0], pos[2]);
  EXPECT_LT(pos[1], pos[3]);
  EXPECT_LT(pos[2], pos[3]);
}

TEST(DagExecutorTest, ManyConcurrentDagJobs) {
  ThreadPool pool({.workers = 4, .steal_k = 0, .seed = 4});
  const dag::Dag shape = dag::star(6);
  std::atomic<int> nodes{0};
  std::vector<JobHandle> jobs;
  for (int i = 0; i < 40; ++i)
    jobs.push_back(submit_dag(pool, shape, [&](dag::NodeId, dag::Work) {
      nodes.fetch_add(1);
    }));
  for (auto& j : jobs) j->wait();
  EXPECT_EQ(nodes.load(), 40 * 7);
  // A job's wait() returns before its completion is recorded; wait_all()
  // is what orders the recorder writes before this read.
  pool.wait_all();
  EXPECT_EQ(pool.recorder().count(), 40u);
}

TEST(DagExecutorTest, SpinningBodyTakesMeasurableTime) {
  ThreadPool pool({.workers = 2, .steal_k = 0, .seed = 5});
  const dag::Dag graph = dag::serial_chain(4, 10);
  auto job = submit_dag_spinning(pool, graph, /*ns_per_unit=*/20000.0);
  job->wait();
  // 40 units * 20 us = 0.8 ms of mandatory spinning.
  EXPECT_GE(job->flow_seconds(), 0.0008 * 0.5);  // generous slack
}

TEST(DagExecutorTest, WeightPropagates) {
  ThreadPool pool({.workers = 2, .steal_k = 0, .seed = 6});
  auto job = submit_dag(pool, dag::single_node(1),
                        [](dag::NodeId, dag::Work) {}, /*weight=*/9.0);
  job->wait();
  EXPECT_DOUBLE_EQ(job->weight(), 9.0);
}

TEST(DagExecutorTest, UnsealedDagRejected) {
  ThreadPool pool({.workers = 1, .steal_k = 0, .seed = 7});
  dag::Dag d;
  d.add_node(1);
  EXPECT_THROW(submit_dag(pool, d, [](dag::NodeId, dag::Work) {}),
               std::invalid_argument);
}

TEST(SpinForUnitsTest, ScalesWithUnits) {
  const auto t0 = std::chrono::steady_clock::now();
  spin_for_units(10, 50000.0);  // 0.5 ms
  const auto t1 = std::chrono::steady_clock::now();
  EXPECT_GE(std::chrono::duration<double>(t1 - t0).count(), 0.0004);
}

}  // namespace
}  // namespace pjsched::runtime
