// Micro-benchmarks (google-benchmark) for the simulation substrate: RNG
// throughput, event-engine decision rate, and step-engine worker-step rate.
// These establish that the Figure-2 experiments (millions of simulated
// steps) run in seconds, and catch performance regressions in the engines.
//
// The {Step,Event}Engine{Fast,Exact} pairs time each engine's fast path
// against its reference loop (StepEngineOptions::exact_steps and the
// `-exact` event-engine schedulers) on workloads where the fast path
// matters; docs/simulation-model.md quotes their speedups.  End-to-end
// figures come from perfbench/, and the streamed O(live jobs) memory gate
// is tests/scaling_test.cc.
#include <benchmark/benchmark.h>

#include "src/dag/builders.h"
#include "src/sched/event_schedulers.h"
#include "src/sched/work_stealing.h"
#include "src/sim/rng.h"
#include "src/sim/step_engine.h"
#include "src/workload/distributions.h"
#include "src/workload/generator.h"

namespace {

using namespace pjsched;

void BM_RngNextU64(benchmark::State& state) {
  sim::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_u64());
}
BENCHMARK(BM_RngNextU64);

void BM_RngUniformInt(benchmark::State& state) {
  sim::Rng rng(2);
  for (auto _ : state) benchmark::DoNotOptimize(rng.uniform_int(15));
}
BENCHMARK(BM_RngUniformInt);

core::Instance bench_instance(std::size_t jobs, double qps = 1000.0) {
  const auto dist = workload::bing_distribution();
  workload::GeneratorConfig gen;
  gen.num_jobs = jobs;
  gen.qps = qps;
  gen.seed = 5;
  return workload::generate_instance(dist, gen);
}

void BM_EventEngineFifo(benchmark::State& state) {
  const auto inst = bench_instance(static_cast<std::size_t>(state.range(0)));
  sched::FifoScheduler fifo;
  for (auto _ : state) {
    auto res = fifo.run(inst, {16, 1.0});
    benchmark::DoNotOptimize(res.max_flow);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventEngineFifo)
    ->Arg(500)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);

void BM_StepEngineAdmitFirst(benchmark::State& state) {
  const auto inst = bench_instance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    sched::WorkStealingScheduler ws(0, 7);
    auto res = ws.run(inst, {16, 1.0});
    benchmark::DoNotOptimize(res.max_flow);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StepEngineAdmitFirst)
    ->Arg(500)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);

void BM_StepEngineStealK(benchmark::State& state) {
  const auto inst = bench_instance(2000);
  const auto k = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    sched::WorkStealingScheduler ws(k, 7);
    auto res = ws.run(inst, {16, 1.0});
    benchmark::DoNotOptimize(res.max_flow);
  }
}
BENCHMARK(BM_StepEngineStealK)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

// --- Fast path vs reference loop ----------------------------------------

// Coarse-node all-busy workload: 48 parallel-for jobs of 32 grains x 2000
// work units (~3.07M worker-steps), arrivals packed so a 16-worker machine
// stays saturated — the work-quantum fast path's best case, and exactly the
// regime the Figure-2 sweeps spend most of their simulated time in.
core::Instance coarse_all_busy_instance() {
  core::Instance inst;
  for (std::size_t i = 0; i < 48; ++i) {
    core::JobSpec spec;
    spec.arrival = 10.0 * static_cast<double>(i);
    spec.graph = dag::parallel_for_dag(32, 2000);
    inst.jobs.push_back(std::move(spec));
  }
  return inst;
}

void run_step_pair(benchmark::State& state, bool exact_steps) {
  const auto inst = coarse_all_busy_instance();
  sim::StepEngineOptions opt;
  opt.machine = {16, 1.0};
  opt.steal_k = 4;
  opt.seed = 7;
  opt.exact_steps = exact_steps;
  for (auto _ : state) {
    core::InstanceSource source(inst);
    auto res = sim::run_step_engine(source, opt);
    benchmark::DoNotOptimize(res.max_flow);
  }
  // items/sec = simulated worker-steps per second.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inst.total_work()));
}

void BM_StepEngineFast(benchmark::State& state) {
  run_step_pair(state, /*exact_steps=*/false);
}
BENCHMARK(BM_StepEngineFast)->Unit(benchmark::kMillisecond);

void BM_StepEngineExact(benchmark::State& state) {
  run_step_pair(state, /*exact_steps=*/true);
}
BENCHMARK(BM_StepEngineExact)->Unit(benchmark::kMillisecond);

// Figure-2-scale event-engine workload: 2000 bing-distribution jobs arriving
// at 4000 qps on a 16-processor machine — a backlogged regime, so the active
// set is large and the exact path's per-slice rebuild + policy sort dominate.
// Fast vs exact isolates the virtual-work-clock path (incremental active
// set, completion heap, span traces) against the per-slice reference loop;
// the instance, policy, and results are bit-identical across the pair
// (tests/event_fast_path_test.cc).
void run_event_pair(benchmark::State& state, bool exact_engine) {
  const auto inst = bench_instance(2000, 4000.0);
  sched::FifoScheduler fifo(exact_engine);
  std::int64_t decisions = 0;
  for (auto _ : state) {
    auto res = fifo.run(inst, {16, 1.0});
    decisions = static_cast<std::int64_t>(res.stats.decision_points);
    benchmark::DoNotOptimize(res.max_flow);
  }
  // items/sec = scheduling decision points per second.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          decisions);
}

void BM_EventEngineFast(benchmark::State& state) {
  run_event_pair(state, /*exact_engine=*/false);
}
BENCHMARK(BM_EventEngineFast)->Unit(benchmark::kMillisecond);

void BM_EventEngineExact(benchmark::State& state) {
  run_event_pair(state, /*exact_engine=*/true);
}
BENCHMARK(BM_EventEngineExact)->Unit(benchmark::kMillisecond);

void BM_InstanceGeneration(benchmark::State& state) {
  for (auto _ : state) {
    auto inst = bench_instance(2000);
    benchmark::DoNotOptimize(inst.jobs.size());
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_InstanceGeneration)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
