// Micro-benchmarks (google-benchmark) for the threaded work-stealing
// runtime: Chase-Lev deque operations, spawn/join overhead, parallel_for
// dispatch, and end-to-end job submission throughput under both admission
// policies.  These quantify the overheads the paper argues are what make
// distributed work stealing preferable to a centralized FIFO in practice.
#include <benchmark/benchmark.h>

#include <atomic>

#include "src/runtime/chase_lev_deque.h"
#include "src/runtime/thread_pool.h"

namespace {

using namespace pjsched::runtime;

void BM_DequePushPop(benchmark::State& state) {
  ChaseLevDeque<std::intptr_t> deque;
  std::intptr_t v = 0;
  for (auto _ : state) {
    deque.push(1);
    benchmark::DoNotOptimize(deque.pop(v));
  }
}
BENCHMARK(BM_DequePushPop);

void BM_DequePushSteal(benchmark::State& state) {
  ChaseLevDeque<std::intptr_t> deque;
  std::intptr_t v = 0;
  for (auto _ : state) {
    deque.push(1);
    benchmark::DoNotOptimize(deque.steal(v));
  }
}
BENCHMARK(BM_DequePushSteal);

// The two probes a failed steal-k-first round makes: the owner's pop and a
// thief's steal, each on an empty deque.
void BM_DequePopEmpty(benchmark::State& state) {
  ChaseLevDeque<std::intptr_t> deque;
  std::intptr_t v = 0;
  // The deque escapes, so no iteration's pop() can be folded into a constant.
  benchmark::DoNotOptimize(&deque);
  for (auto _ : state) benchmark::DoNotOptimize(deque.pop(v));
}
BENCHMARK(BM_DequePopEmpty);

void BM_DequeStealEmpty(benchmark::State& state) {
  ChaseLevDeque<std::intptr_t> deque;
  std::intptr_t v = 0;
  for (auto _ : state) benchmark::DoNotOptimize(deque.steal(v));
}
BENCHMARK(BM_DequeStealEmpty);

void BM_DequeBulkCycle(benchmark::State& state) {
  const auto batch = static_cast<std::intptr_t>(state.range(0));
  ChaseLevDeque<std::intptr_t> deque;
  std::intptr_t v = 0;
  for (auto _ : state) {
    for (std::intptr_t i = 0; i < batch; ++i) deque.push(i);
    for (std::intptr_t i = 0; i < batch; ++i)
      benchmark::DoNotOptimize(deque.pop(v));
  }
  state.SetItemsProcessed(state.iterations() * batch * 2);
}
BENCHMARK(BM_DequeBulkCycle)->Arg(64)->Arg(1024);

void BM_SpawnJoin(benchmark::State& state) {
  const auto spawns = static_cast<int>(state.range(0));
  ThreadPool pool({.workers = 2, .steal_k = 0, .seed = 1});
  std::atomic<int> sink{0};
  for (auto _ : state) {
    auto job = pool.submit([&, spawns](TaskContext& ctx) {
      WaitGroup wg;
      for (int i = 0; i < spawns; ++i)
        ctx.spawn([&](TaskContext&) { sink.fetch_add(1); }, wg);
      ctx.wait_help(wg);
    });
    job->wait();
  }
  state.SetItemsProcessed(state.iterations() * spawns);
}
BENCHMARK(BM_SpawnJoin)->Arg(16)->Arg(256);

void BM_ParallelFor(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ThreadPool pool({.workers = 2, .steal_k = 0, .seed = 2});
  std::atomic<std::uint64_t> sink{0};
  for (auto _ : state) {
    auto job = pool.submit([&, n](TaskContext& ctx) {
      parallel_for(ctx, 0, n, 64, [&](std::size_t lo, std::size_t hi) {
        std::uint64_t local = 0;
        for (std::size_t i = lo; i < hi; ++i) local += i;
        sink.fetch_add(local);
      });
    });
    job->wait();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ParallelFor)->Arg(1024)->Arg(16384);

void BM_SubmitThroughputAdmitFirst(benchmark::State& state) {
  ThreadPool pool({.workers = 2, .steal_k = 0, .seed = 3});
  std::atomic<int> sink{0};
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i)
      pool.submit([&](TaskContext&) { sink.fetch_add(1); });
    pool.wait_all();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SubmitThroughputAdmitFirst);

void BM_SubmitThroughputStealK(benchmark::State& state) {
  ThreadPool pool({.workers = 2, .steal_k = 16, .seed = 4});
  std::atomic<int> sink{0};
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i)
      pool.submit([&](TaskContext&) { sink.fetch_add(1); });
    pool.wait_all();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SubmitThroughputStealK);

}  // namespace

BENCHMARK_MAIN();
