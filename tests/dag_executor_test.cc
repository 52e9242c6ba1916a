// Tests for executing dag::Dag jobs on the real thread pool
// (src/runtime/dag_executor.h).
#include "src/runtime/dag_executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/dag/builders.h"
#include "src/sim/rng.h"
#include "tests/alloc_counter.h"
#include "tests/worker_gate.h"

namespace pjsched::runtime {
namespace {

using testutil::WorkerGate;

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
  auto job = submit_dag(pool, graph,
                        [&](dag::NodeId, dag::Work) { runs.fetch_add(1); });
  job->wait();
  EXPECT_EQ(runs.load(), static_cast<int>(graph.node_count()));
}

TEST(DagExecutorTest, PrecedenceRespected) {
  ThreadPool pool({.workers = 4, .steal_k = 0, .seed = 2});
  const dag::Dag graph = dag::divide_and_conquer(4, 2);
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

TEST(DagExecutorTest, SubmitOptionsOnFinishMustBeEmpty) {
  ThreadPool pool({.workers = 1, .steal_k = 0, .seed = 8});
  SubmitOptions options;
  options.on_finish = [](const Job&) {};
  EXPECT_THROW(submit_dag(pool, dag::single_node(1),
                          [](dag::NodeId, dag::Work) {}, std::move(options)),
               std::invalid_argument);
}

// Submit-side operator new calls per job over 1,000 submissions.  Besides
// the per-job allocations this counts amortized growth: the admission
// queue's chunks, live_jobs_'s capacity and root-task slab blocks, about
// 0.04 calls per job together.
double submit_allocations_per_job(const dag::Dag& graph) {
  ThreadPool pool({.workers = 2, .steal_k = 0, .seed = 9});
  constexpr int kJobs = 1000;
  const std::uint64_t before = testutil::thread_allocations;
  for (int i = 0; i < kJobs; ++i)
    submit_dag_spinning(pool, graph, /*ns_per_unit=*/0.0);
  const std::uint64_t allocations = testutil::thread_allocations - before;
  pool.wait_all();
  return static_cast<double>(allocations) / kJobs;
}

// The job and its execution block: two allocations, neither of which
// multiplies with the DAG's size.  The finish hook that owns the block is
// stored inline in the job.
TEST(DagExecutorTest, SubmitAllocatesTwicePerJobWhateverItsSize) {
  const double one_node = submit_allocations_per_job(dag::single_node(1));
  const double wide = submit_allocations_per_job(dag::parallel_for_dag(32, 1));
  EXPECT_LE(one_node, 2.1);
  EXPECT_LE(wide, 2.1);
  EXPECT_EQ(std::lround(one_node), std::lround(wide));
}

// ---------------------------------------------------------------------------
// Ready lists.  A finishing node hands the successors it readied to the pool
// as one task over the list, which is split by halves as it runs.

// A 64-grain parallel-for on two workers.  The first grain to start holds its
// worker until the other 63 grains have run, so the other worker must run
// them all.  It can reach them only by stealing what the held worker pushed
// before its grain started: the two halves of the rest of the grain's ready
// list, not one task per grain.  Before the hold, at most three tasks change
// worker: the root's source list, the fork's 64-grain list and one half of
// it (the thief's first grain can start before the list's own first grain
// does).  So at most five steals in all, where one task per grain costs 63
// or more.
std::uint64_t steals_to_run_around_a_held_grain(unsigned steal_k) {
  ThreadPool pool({.workers = 2, .steal_k = steal_k, .seed = 31});
  constexpr dag::NodeId kGrains = 64;  // nodes 1..64; 0 forks, 65 joins
  std::atomic<bool> held{false}, timed_out{false};
  std::atomic<dag::NodeId> others_done{0};
  auto job = submit_dag(
      pool, dag::parallel_for_dag(kGrains, 1), [&](dag::NodeId v, dag::Work) {
        if (v == 0 || v == kGrains + 1) return;
        bool expected = false;
        if (!held.compare_exchange_strong(expected, true)) {
          others_done.fetch_add(1);
          return;
        }
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (others_done.load() < kGrains - 1) {
          if (std::chrono::steady_clock::now() > deadline) {
            timed_out.store(true);
            return;
          }
          std::this_thread::yield();
        }
      });
  pool.wait_all();
  EXPECT_FALSE(timed_out.load()) << "the other worker never ran the grains";
  EXPECT_EQ(job->outcome(), JobOutcome::kCompleted);
  return pool.stats().successful_steals;
}

TEST(DagExecutorTest, OneStealTakesHalfOfTheReadyGrains) {
  for (unsigned steal_k : {0u, 16u}) {
    SCOPED_TRACE(testing::Message() << "steal_k " << steal_k);
    EXPECT_LE(steals_to_run_around_a_held_grain(steal_k), 5u);
  }
}

// In a random layered DAG a node's successor list mixes successors that its
// finish readies with ones still waiting on another predecessor, so the
// ready list is compacted in place; the parallel-for, fork-join, chain and
// star shapes above ready all of a node's successors at once.  Sixteen
// concurrent jobs per pool, on 2 and 4 workers, admit-first and
// steal-16-first: every node runs once, after all its predecessors, in one
// task of its own.
TEST(DagExecutorTest, PartiallyReadySuccessorsRunOnceAfterTheirPredecessors) {
  sim::Rng rng(41);
  dag::RandomLayeredOptions layered;
  layered.layers = 5;
  layered.min_width = 1;
  layered.max_width = 6;
  layered.edge_probability = 0.5;
  const dag::RandomForkJoinOptions fork_join;
  constexpr int kJobs = 16;
  for (unsigned workers : {2u, 4u}) {
    for (unsigned steal_k : {0u, 16u}) {
      SCOPED_TRACE(testing::Message()
                   << workers << " workers, steal_k " << steal_k);
      ThreadPool pool({.workers = workers, .steal_k = steal_k, .seed = 42});
      std::vector<dag::Dag> graphs;
      std::vector<std::unique_ptr<OrderRecorder>> recorders;
      std::uint64_t tasks = 0;
      for (int i = 0; i < kJobs; ++i) {
        graphs.push_back(i % 2 == 0 ? dag::random_layered(rng, layered)
                                    : dag::random_fork_join(rng, fork_join));
        tasks += graphs.back().node_count() + 1;
        recorders.push_back(std::make_unique<OrderRecorder>());
      }
      const std::uint64_t before = pool.stats().tasks_executed;
      for (int i = 0; i < kJobs; ++i)
        submit_dag(pool, graphs[i], recorders[i]->body());
      pool.wait_all();
      EXPECT_EQ(pool.stats().tasks_executed - before, tasks);
      for (int i = 0; i < kJobs; ++i) {
        const dag::Dag& graph = graphs[i];
        const std::size_t n = graph.node_count();
        std::vector<int> runs(n, 0);
        for (dag::NodeId v : recorders[i]->order) ++runs[v];
        for (dag::NodeId v = 0; v < n; ++v)
          EXPECT_EQ(runs[v], 1) << "job " << i << ", node " << v;
        const auto pos = recorders[i]->positions(n);
        for (dag::NodeId u = 0; u < n; ++u)
          for (dag::NodeId v : graph.successors(u))
            EXPECT_LT(pos[u], pos[v])
                << "job " << i << ", edge " << u << "->" << v;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Lifetime of the job's execution block.  Each body below holds a sentinel;
// the pool must drop the block, and with it the body, exactly once for
// every terminal outcome.  The job handles stay alive, so a use_count() back
// at 1 shows the pool released the block, not a job destructor; a second
// release would free the sentinel under the test's own reference.

NodeBody counting_body(std::shared_ptr<int> sentinel, std::atomic<int>& runs) {
  return [sentinel = std::move(sentinel), &runs](dag::NodeId, dag::Work) {
    runs.fetch_add(1);
  };
}

TEST(DagExecutorLifetimeTest, CompletedJob) {
  ThreadPool pool({.workers = 2, .steal_k = 0, .seed = 21});
  auto sentinel = std::make_shared<int>(0);
  std::atomic<int> runs{0};
  auto job = submit_dag(pool, dag::parallel_for_dag(8, 1),
                        counting_body(sentinel, runs));
  pool.wait_all();
  EXPECT_EQ(job->outcome(), JobOutcome::kCompleted);
  EXPECT_EQ(runs.load(), 10);
  EXPECT_EQ(sentinel.use_count(), 1);
}

TEST(DagExecutorLifetimeTest, BodyThrowsMidDag) {
  ThreadPool pool({.workers = 2, .steal_k = 0, .seed = 22});
  auto sentinel = std::make_shared<int>(0);
  std::atomic<int> after{0};
  auto job = submit_dag(pool, dag::serial_chain(4, 1),
                        [sentinel, &after](dag::NodeId v, dag::Work) {
                          if (v == 1) throw std::runtime_error("node 1");
                          if (v > 1) after.fetch_add(1);
                        });
  pool.wait_all();
  EXPECT_EQ(job->outcome(), JobOutcome::kFailed);
  EXPECT_EQ(job->error(), "node 1");
  EXPECT_EQ(after.load(), 0);  // the nodes behind the failure never ran
  EXPECT_EQ(sentinel.use_count(), 1);
}

TEST(DagExecutorLifetimeTest, DeadlineExpiredJob) {
  ThreadPool pool({.workers = 2, .steal_k = 0, .seed = 23});
  auto sentinel = std::make_shared<int>(0);
  std::atomic<int> runs{0};
  SubmitOptions options;
  options.deadline = std::chrono::milliseconds(1);
  auto job = submit_dag(
      pool, dag::serial_chain(3, 1),
      [sentinel, &runs](dag::NodeId, dag::Work) {
        runs.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      },
      std::move(options));
  pool.wait_all();
  EXPECT_EQ(job->outcome(), JobOutcome::kDeadlineExpired);
  EXPECT_LE(runs.load(), 1);  // node 1 starts past the deadline: skipped
  EXPECT_EQ(sentinel.use_count(), 1);
}

TEST(DagExecutorLifetimeTest, SubmitAfterShutdownThrows) {
  ThreadPool pool({.workers = 1, .steal_k = 0, .seed = 26});
  pool.shutdown();
  auto sentinel = std::make_shared<int>(0);
  std::atomic<int> runs{0};
  EXPECT_THROW(
      submit_dag(pool, dag::star(4), counting_body(sentinel, runs)),
      std::logic_error);
  pool.wait_all();
  EXPECT_EQ(runs.load(), 0);
  EXPECT_EQ(sentinel.use_count(), 1);
}

// The run reads everything from its own block: the DAG it was built from is
// a temporary, destroyed before the gated worker admits the job.
TEST(DagExecutorLifetimeTest, TemporaryDagDestroyedBeforeTheJobRuns) {
  const auto shape = [] { return dag::divide_and_conquer(4, 2); };
  const dag::Dag reference = shape();
  ThreadPool pool({.workers = 1, .steal_k = 0, .seed = 27});
  WorkerGate gate;
  gate.submit_to(pool);
  auto sentinel = std::make_shared<int>(0);
  OrderRecorder rec;
  auto job = submit_dag(pool, shape(),
                        [sentinel, body = rec.body()](dag::NodeId v,
                                                      dag::Work w) {
                          body(v, w);
                        });
  gate.release.store(true);
  pool.wait_all();
  EXPECT_EQ(job->outcome(), JobOutcome::kCompleted);
  ASSERT_EQ(rec.order.size(), reference.node_count());
  const auto pos = rec.positions(reference.node_count());
  for (dag::NodeId u = 0; u < reference.node_count(); ++u)
    for (dag::NodeId v : reference.successors(u))
      EXPECT_LT(pos[u], pos[v]) << "edge " << u << "->" << v;
  EXPECT_EQ(sentinel.use_count(), 1);
}

TEST(SpinForUnitsTest, ScalesWithUnits) {
  const auto t0 = std::chrono::steady_clock::now();
  spin_for_units(10, 50000.0);  // 0.5 ms
  const auto t1 = std::chrono::steady_clock::now();
  EXPECT_GE(std::chrono::duration<double>(t1 - t0).count(), 0.0004);
}

}  // namespace
}  // namespace pjsched::runtime
