// Stress and shape-extreme tests: degenerate and adversarial instance
// shapes that exercise engine edge paths, at sizes that still run in
// milliseconds.  Every run is audited where a trace is available.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/core/bounds.h"
#include "src/core/run.h"
#include "src/dag/builders.h"
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
        metrics::audit_schedule(inst, {m, speed}, trace, res.completion);
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
  // Equal widths and edge probability 1: every layer precedes all of the
  // next, a dense all-to-all shuffle at each step.
  sim::Rng rng(75);
  dag::RandomLayeredOptions dense;
  dense.layers = 8;
  dense.min_width = dense.max_width = 8;
  dense.min_work = dense.max_work = 2;
  dense.edge_probability = 1.0;
  auto inst = make_instance({
      {0.0, dag::star(64)},
      {1.0, dag::serial_chain(300, 1)},
      {2.0, dag::random_layered(rng, dense)},
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
    const auto report =
        metrics::audit_schedule(inst, {2, 0.5}, trace, res.completion);
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
  constexpr int kPerThread = 2000;
  std::atomic<int> accepted{0};
  std::atomic<int> refused{0};
  std::atomic<int> other_errors{0};
  std::atomic<int> bodies{0};
  std::atomic<int> hooks{0};
  std::atomic<int> hooks_off_their_worker{0};
  auto sentinel = std::make_shared<int>(0);
  std::vector<std::vector<runtime::JobHandle>> handles(kThreads);
  std::atomic<int> started{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      started.fetch_add(1);
      while (started.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < kPerThread; ++i) {
        // Shut down in the middle of the submission storm: the first
        // submitter does it a quarter of the way in, beside the others.
        if (t == 0 && i == kPerThread / 4) pool.shutdown();
        // The body notes the worker it ran on; the hook must run there
        // too, never on this submitter or on the shutdown thread.
        auto ran_on = std::make_shared<std::thread::id>();
        runtime::SubmitOptions options;
        options.on_finish = [&, ran_on, keep = sentinel](const runtime::Job&) {
          if (*ran_on != std::this_thread::get_id())
            hooks_off_their_worker.fetch_add(1);
          hooks.fetch_add(1);
        };
        try {
          handles[t].push_back(pool.submit(
              [&, ran_on](runtime::TaskContext&) {
                *ran_on = std::this_thread::get_id();
                bodies.fetch_add(1);
              },
              std::move(options)));
          accepted.fetch_add(1);
        } catch (const std::logic_error&) {
          refused.fetch_add(1);  // racing shutdown: loud, not silent
        } catch (...) {
          other_errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : submitters) t.join();
  // Every refusal was a thrown std::logic_error, and nothing else failed.
  EXPECT_EQ(other_errors.load(), 0);
  EXPECT_EQ(accepted.load() + refused.load(), kThreads * kPerThread);
  // Every handle that submit() returned completed before shutdown()
  // returned; a refused submission was neither counted, recorded nor run,
  // and its hook was destroyed unrun.
  for (const auto& per_thread : handles)
    for (const auto& job : per_thread) {
      EXPECT_TRUE(job->finished());
      EXPECT_EQ(job->outcome(), runtime::JobOutcome::kCompleted)
          << runtime::to_string(job->outcome());
    }
  const auto n = static_cast<std::uint64_t>(accepted.load());
  const std::string books = "submitted=" + std::to_string(n) +
                            " terminal=" + std::to_string(n) + " pending=0";
  EXPECT_NE(pool.dump_state().find(books), std::string::npos)
      << pool.dump_state();
  EXPECT_EQ(pool.recorder().outcome_counts().completed, n);
  EXPECT_EQ(pool.recorder().count(), n);
  EXPECT_EQ(pool.admission_stats().accepted, n);
  EXPECT_EQ(bodies.load(), accepted.load());
  EXPECT_EQ(hooks.load(), accepted.load());
  EXPECT_EQ(hooks_off_their_worker.load(), 0);
  EXPECT_EQ(sentinel.use_count(), 1);  // every hook is gone, run or not
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

// Bursts of submits and spawns into pools whose workers have parked, over
// every steal-k window.  The pool has no timed backstop, so a missed wake
// leaves jobs pending with nothing executing: the pool's own watchdog
// reports it, and its sink submits one more job, whose own wake rescues
// the pool, so the test fails instead of hanging.
void spawn_tree(runtime::TaskContext& ctx, int depth) {
  if (depth == 0) return;
  runtime::WaitGroup wg;
  for (int i = 0; i < 3; ++i)
    ctx.spawn([depth](runtime::TaskContext& c) { spawn_tree(c, depth - 1); },
              wg);
  ctx.wait_help(wg);
}

TEST(RuntimeStressTest, BurstsIntoParkedPools) {
  constexpr unsigned kStealK[] = {0, 1, 4, 16};
  for (unsigned round = 0; round < 24; ++round) {
    std::atomic<int> stalls{0};
    runtime::PoolOptions options;
    options.workers = 1 + round % 4;
    options.steal_k = kStealK[round / 4 % 4];
    options.seed = 50 + round;
    options.watchdog_interval = std::chrono::seconds(2);
    runtime::ThreadPool* self = nullptr;
    options.watchdog_sink = [&](const std::string&) {
      stalls.fetch_add(1);
      self->submit([](runtime::TaskContext&) {});
    };
    runtime::ThreadPool pool(options);
    self = &pool;
    for (unsigned batch = 0; batch < 40; ++batch) {
      // Idle gaps of 0-300 us: short ones end while workers still spin,
      // long ones after they parked.
      std::this_thread::sleep_for(
          std::chrono::microseconds((round * 37 + batch * 53) % 300));
      for (unsigned j = 0; j <= (round + batch) % 5; ++j)
        pool.submit([depth = static_cast<int>((round + j) % 4)](
                        runtime::TaskContext& ctx) { spawn_tree(ctx, depth); });
      pool.wait_all();
    }
    pool.shutdown();
    EXPECT_EQ(stalls.load(), 0) << "round " << round << ": a missed wake";
  }
}

}  // namespace
}  // namespace pjsched
