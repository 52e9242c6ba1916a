// Stress and shape-extreme tests: degenerate and adversarial instance
// shapes that exercise engine edge paths, at sizes that still run in
// milliseconds.  Every run is audited where a trace is available.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/core/bounds.h"
#include "src/core/run.h"
#include "src/dag/builders.h"
#include "src/dag/compose.h"
#include "src/metrics/audit.h"
#include "src/runtime/thread_pool.h"
#include "tests/test_util.h"

namespace pjsched {
namespace {

using testutil::make_instance;

std::vector<core::SchedulerSpec> sweep_specs() {
  std::vector<core::SchedulerSpec> specs;
  for (const char* name :
       {"fifo", "bwf", "equi", "sjf", "lifo", "round-robin", "admit-first",
        "steal-4-first"}) {
    auto s = core::parse_scheduler(name);
    s.seed = 3;
    specs.push_back(s);
  }
  return specs;
}

void run_all_and_audit(const core::Instance& inst, unsigned m,
                       double speed = 1.0) {
  for (const auto& spec : sweep_specs()) {
    sim::Trace trace;
    const auto res = core::run_scheduler(inst, spec, {m, speed}, &trace);
    const auto report =
        metrics::audit_schedule(inst, {m, speed}, trace, res);
    ASSERT_TRUE(report.ok) << res.scheduler_name << ":\n" << report.to_string();
    EXPECT_GE(res.max_flow, 0.0);
  }
}

TEST(StressTest, MassiveFanOutStar) {
  // One root enabling 500 children at once: deque growth, wide frontier.
  auto inst = make_instance({{0.0, dag::star(500)}});
  run_all_and_audit(inst, 8);
}

TEST(StressTest, VeryDeepChain) {
  auto inst = make_instance({{0.0, dag::serial_chain(2000, 1)}});
  run_all_and_audit(inst, 4);
}

TEST(StressTest, ManySimultaneousArrivals) {
  // 60 jobs all at t = 0: admission queue stress, FIFO tie-breaking.
  std::vector<std::pair<core::Time, dag::Dag>> jobs;
  for (int i = 0; i < 60; ++i)
    jobs.emplace_back(0.0, dag::parallel_for_dag(3, 2));
  run_all_and_audit(testutil::make_instance(std::move(jobs)), 4);
}

TEST(StressTest, SingleUnitJobsFlood) {
  // Minimal jobs (1 unit each) back to back: per-job overhead paths.
  std::vector<std::pair<core::Time, dag::Dag>> jobs;
  for (int i = 0; i < 200; ++i)
    jobs.emplace_back(static_cast<core::Time>(i) * 0.5, dag::single_node(1));
  run_all_and_audit(testutil::make_instance(std::move(jobs)), 2);
}

TEST(StressTest, MixedExtremeShapes) {
  auto inst = make_instance({
      {0.0, dag::star(64)},
      {1.0, dag::serial_chain(300, 1)},
      {2.0, dag::map_reduce_dag(16, 4, 4, 8)},
      {3.0, dag::pipeline_dag(8, 8, 2)},
      {4.0, dag::divide_and_conquer(5, 2)},
      {5.0, dag::single_node(1)},
  });
  run_all_and_audit(inst, 5);
}

TEST(StressTest, HugeSpeedAugmentation) {
  auto inst = testutil::random_instance(71, 20, 20.0);
  run_all_and_audit(inst, 3, 64.0);
}

TEST(StressTest, FractionalSpeed) {
  // Speeds below 1 are legal for the engines (the adversary configuration).
  auto inst = testutil::random_instance(72, 10, 10.0);
  for (const char* name : {"fifo", "bwf"}) {
    sim::Trace trace;
    const auto res = core::run_scheduler(inst, core::parse_scheduler(name),
                                         {2, 0.5}, &trace);
    const auto report = metrics::audit_schedule(inst, {2, 0.5}, trace, res);
    ASSERT_TRUE(report.ok) << report.to_string();
    EXPECT_GE(res.max_flow + 1e-9, 2.0 * core::lower_bounds(inst, 1).span);
  }
}

TEST(StressTest, SingleProcessorEverything) {
  auto inst = testutil::random_instance(73, 25, 30.0);
  run_all_and_audit(inst, 1);
}

TEST(StressTest, MoreProcessorsThanTotalNodes) {
  auto inst = make_instance({
      {0.0, dag::single_node(3)},
      {0.5, dag::serial_chain(2, 2)},
  });
  run_all_and_audit(inst, 64);
}

TEST(StressTest, LargeRandomInstanceAllSchedulers) {
  auto inst = testutil::random_instance(74, 300, 500.0);
  for (const auto& spec : sweep_specs()) {
    const auto res = core::run_scheduler(inst, spec, {8, 1.0});
    EXPECT_GE(res.max_flow + 1e-9, core::lower_bounds(inst, 8).opt_sim)
        << res.scheduler_name;
  }
}

TEST(StressTest, WeightExtremes) {
  core::Instance inst;
  inst.jobs.push_back({0.0, 1e-6, dag::single_node(5)});
  inst.jobs.push_back({0.0, 1e6, dag::single_node(5)});
  const auto res =
      core::run_scheduler(inst, core::parse_scheduler("bwf"), {1, 1.0});
  EXPECT_DOUBLE_EQ(res.completion[1], 5.0);  // heavy first
  EXPECT_DOUBLE_EQ(res.completion[0], 10.0);
}

// ---------------------------------------------------------------------------
// Runtime concurrency stress: external threads hammering submit() while
// shutdown()/wait_all() race them.  Run under TSAN in CI.

TEST(RuntimeStressTest, ConcurrentSubmittersRacingShutdown) {
  runtime::ThreadPool pool({.workers = 4, .steal_k = 0, .seed = 40});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::atomic<int> accepted{0};
  std::atomic<int> refused{0};
  std::vector<std::vector<runtime::JobHandle>> handles(kThreads);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        try {
          handles[t].push_back(pool.submit([](runtime::TaskContext&) {}));
          accepted.fetch_add(1);
        } catch (const std::logic_error&) {
          refused.fetch_add(1);  // racing shutdown: loud, not silent
        }
      }
    });
  }
  // Shut down somewhere in the middle of the submission storm.
  std::this_thread::sleep_for(std::chrono::microseconds(500));
  pool.shutdown();
  for (auto& t : submitters) t.join();
  EXPECT_EQ(accepted.load() + refused.load(), kThreads * kPerThread);
  // Every handle that submit() returned reached a terminal outcome: a
  // racing job either ran or was recorded as shed (drained from the
  // closing queue) / rejected (the push hit the already-closed queue),
  // never dropped.
  for (const auto& per_thread : handles)
    for (const auto& job : per_thread) {
      EXPECT_TRUE(job->finished());
      const auto o = job->outcome();
      EXPECT_TRUE(o == runtime::JobOutcome::kCompleted ||
                  o == runtime::JobOutcome::kShed ||
                  o == runtime::JobOutcome::kRejected)
          << runtime::to_string(o);
    }
}

TEST(RuntimeStressTest, ConcurrentSubmittersThenWaitAll) {
  runtime::ThreadPool pool({.workers = 4, .steal_k = 4, .seed = 41});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 250;
  std::atomic<int> ran{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t)
    submitters.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i)
        pool.submit([&](runtime::TaskContext& ctx) {
          ctx.spawn([&](runtime::TaskContext&) { ran.fetch_add(1); });
          ran.fetch_add(1);
        });
    });
  for (auto& t : submitters) t.join();
  pool.wait_all();
  EXPECT_EQ(ran.load(), kThreads * kPerThread * 2);
  EXPECT_EQ(pool.recorder().outcome_counts().completed,
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(RuntimeStressTest, BoundedQueueConcurrentSubmitters) {
  runtime::PoolOptions options;
  options.workers = 2;
  options.seed = 42;
  options.admission_capacity = 8;
  options.backpressure = runtime::BackpressurePolicy::kShedOldest;
  runtime::ThreadPool pool(options);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 150;
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t)
    submitters.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i)
        pool.submit([](runtime::TaskContext&) {});
    });
  for (auto& t : submitters) t.join();
  pool.wait_all();
  const auto counts = pool.recorder().outcome_counts();
  // Conservation: every job is either completed or shed, nothing lost.
  EXPECT_EQ(counts.completed + counts.shed,
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(counts.failed, 0u);
}

TEST(RuntimeStressTest, ConcurrentSubmittersWithFaultInjection) {
  runtime::PoolOptions options;
  options.workers = 3;
  options.seed = 43;
  options.fault_plan.seed = 43;
  options.fault_plan.task_failure_probability = 0.2;
  runtime::ThreadPool pool(options);
  constexpr int kThreads = 3;
  constexpr int kPerThread = 100;
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t)
    submitters.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i)
        pool.submit([](runtime::TaskContext& ctx) {
          runtime::parallel_for(ctx, 0, 8, 2,
                                [](std::size_t, std::size_t) {});
        });
    });
  for (auto& t : submitters) t.join();
  pool.wait_all();
  const auto counts = pool.recorder().outcome_counts();
  EXPECT_EQ(counts.completed + counts.failed,
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_GT(counts.failed, 0u);     // p = 0.2 across ~thousands of tasks
  EXPECT_GT(counts.completed, 0u);  // but plenty survive
  pool.shutdown();
}

}  // namespace
}  // namespace pjsched
