// Runtime hot-path benchmark suite (google-benchmark): the BM_Runtime*
// shapes behind the before/after table in docs/runtime.md.
//
// Three shapes, chosen to expose per-task overhead rather than body work —
// exactly the costs Cilk-style runtimes are designed to eliminate (paper
// Section 6 builds on TBB for the same reason):
//   * fork-join fib        — spawn/join recursion, binary tree;
//   * fine-grain parallel_for — grain 1, near-empty body: a pure measure of
//     spawn + deque + join + task-release traffic per grain;
//   * Bing-style DAG       — many jobs, each a shallow wide spawn tree, the
//     shape of the paper's Bing workload (Figure 2).
//
// Each benchmark reports throughput as tasks/sec (items = the pool's
// tasks_executed delta, so admission roots and spawned subtasks all count)
// plus the steal success rate from PoolStats.  Run these in a Release
// build; end-to-end runtime figures come from perfbench/.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <thread>

#include "src/runtime/thread_pool.h"

namespace {

using namespace pjsched::runtime;

unsigned bench_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void report_pool_delta(benchmark::State& state, const PoolStats& before,
                       const PoolStats& after) {
  state.SetItemsProcessed(
      static_cast<std::int64_t>(after.tasks_executed - before.tasks_executed));
  const std::uint64_t attempts = after.steal_attempts - before.steal_attempts;
  const std::uint64_t hits = after.successful_steals - before.successful_steals;
  state.counters["steal_success_rate"] =
      attempts == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(attempts);
}

std::uint64_t fib_seq(int n) {
  std::uint64_t a = 0, b = 1;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  return a;
}

constexpr int kFibCutoff = 8;

void fib_task(TaskContext& ctx, int n, std::uint64_t* out) {
  if (n < kFibCutoff) {
    *out = fib_seq(n);
    return;
  }
  std::uint64_t a = 0, b = 0;
  WaitGroup wg;
  ctx.spawn([n, &a](TaskContext& inner) { fib_task(inner, n - 1, &a); }, wg);
  fib_task(ctx, n - 2, &b);
  ctx.wait_help(wg);
  *out = a + b;
}

/// Fork-join fib: binary spawn recursion with a sequential cutoff.
void BM_RuntimeFib(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ThreadPool pool({.workers = bench_workers(), .steal_k = 0, .seed = 1});
  const PoolStats before = pool.stats();
  std::uint64_t result = 0;
  for (auto _ : state) {
    auto job = pool.submit(
        [n, &result](TaskContext& ctx) { fib_task(ctx, n, &result); });
    job->wait();
  }
  if (result != fib_seq(n)) state.SkipWithError("fib mismatch");
  report_pool_delta(state, before, pool.stats());
}
BENCHMARK(BM_RuntimeFib)->Arg(20)->UseRealTime();

/// Fine-grain parallel_for: grain 1, one multiply per index — per-grain
/// runtime overhead dominates by design.
void BM_RuntimeParallelForFine(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ThreadPool pool({.workers = bench_workers(), .steal_k = 0, .seed = 2});
  const PoolStats before = pool.stats();
  for (auto _ : state) {
    auto job = pool.submit([n](TaskContext& ctx) {
      parallel_for(ctx, 0, n, 1, [](std::size_t lo, std::size_t hi) {
        std::uint64_t local = 0;
        for (std::size_t i = lo; i < hi; ++i) local += i * i;
        benchmark::DoNotOptimize(local);
      });
    });
    job->wait();
  }
  report_pool_delta(state, before, pool.stats());
}
BENCHMARK(BM_RuntimeParallelForFine)->Arg(4096)->UseRealTime();

/// Spawn-heavy Bing-style DAGs: a burst of jobs, each a wide shallow tree
/// (root -> 24 children -> 8 grandchildren each) of near-empty tasks.
void BM_RuntimeBingDag(benchmark::State& state) {
  ThreadPool pool({.workers = bench_workers(), .steal_k = 0, .seed = 3});
  const PoolStats before = pool.stats();
  std::atomic<std::uint64_t> sink{0};
  for (auto _ : state) {
    for (int j = 0; j < 16; ++j) {
      pool.submit([&sink](TaskContext& ctx) {
        WaitGroup wg;
        for (int c = 0; c < 24; ++c) {
          ctx.spawn(
              [&sink](TaskContext& inner) {
                for (int g = 0; g < 8; ++g)
                  inner.spawn([&sink](TaskContext&) {
                    sink.fetch_add(1, std::memory_order_relaxed);
                  });
              },
              wg);
        }
        ctx.wait_help(wg);
      });
    }
    pool.wait_all();
  }
  benchmark::DoNotOptimize(sink.load());
  report_pool_delta(state, before, pool.stats());
}
BENCHMARK(BM_RuntimeBingDag)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
