// Empirical companion to Lemma 5.1: work stealing is Omega(log n)-
// competitive even with constant speed augmentation.
//
// The adversarial instance (src/workload/lower_bound_instance.h) releases
// star jobs (1 root + m/10 children, all unit work) every 2m steps on
// m = log2(n) processors.  OPT finishes each job in 2 time units; under
// randomized stealing some jobs execute (nearly) sequentially, so the max
// flow grows linearly in m — i.e. logarithmically in the n = 2^Theta(m)
// the proof envisions.  The suite sweeps m and reports max flow under
// admit-first at speeds 1 and 2 (speed augmentation does not rescue the
// ratio's growth) as counters, against OPT's constant 2 and the
// centralized FIFO, which also achieves 2.
//
// google-benchmark form: the adversarial instance is generated once per
// benchmark registration, *outside* the timing loop, so the reported time
// is the simulation alone — previously generation ran inline with the
// measured sweep and dominated the small-m points.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <map>

#include "src/sched/event_schedulers.h"
#include "src/sched/work_stealing.h"
#include "src/workload/lower_bound_instance.h"

namespace {

using namespace pjsched;

const core::Instance& lower_bound_instance(unsigned m) {
  // One instance per m for the life of the process: every benchmark (and
  // every iteration) measures against the identical adversarial workload.
  static std::map<unsigned, core::Instance> cache;
  auto it = cache.find(m);
  if (it == cache.end()) {
    workload::LowerBoundConfig cfg;
    cfg.m = m;
    cfg.num_jobs = 2000;
    it = cache.emplace(m, workload::make_lower_bound_instance(cfg)).first;
  }
  return it->second;
}

void BM_LowerBoundWorkStealing(benchmark::State& state) {
  const auto m = static_cast<unsigned>(state.range(0));
  const core::Instance& inst = lower_bound_instance(m);
  double f1 = 0.0, f2 = 0.0;
  for (auto _ : state) {
    sched::WorkStealingScheduler ws1(0, 2024);
    sched::WorkStealingScheduler ws2(0, 2024);
    f1 = ws1.run(inst, {m, 1.0}).max_flow;
    f2 = ws2.run(inst, {m, 2.0}).max_flow;
    benchmark::DoNotOptimize(f1);
    benchmark::DoNotOptimize(f2);
  }
  state.counters["ws_flow_speed1"] = f1;
  state.counters["ws_flow_speed2"] = f2;
  state.counters["opt_flow"] = workload::lower_bound_opt_flow();
  state.counters["ws1_over_opt"] = f1 / workload::lower_bound_opt_flow();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inst.size()));
}
BENCHMARK(BM_LowerBoundWorkStealing)
    ->Arg(10)
    ->Arg(20)
    ->Arg(40)
    ->Arg(80)
    ->Arg(160)
    ->Unit(benchmark::kMillisecond);

void BM_LowerBoundFifo(benchmark::State& state) {
  const auto m = static_cast<unsigned>(state.range(0));
  const core::Instance& inst = lower_bound_instance(m);
  double flow = 0.0;
  for (auto _ : state) {
    sched::FifoScheduler fifo;
    flow = fifo.run(inst, {m, 1.0}).max_flow;
    benchmark::DoNotOptimize(flow);
  }
  state.counters["fifo_flow"] = flow;
  state.counters["opt_flow"] = workload::lower_bound_opt_flow();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inst.size()));
}
BENCHMARK(BM_LowerBoundFifo)
    ->Arg(10)
    ->Arg(20)
    ->Arg(40)
    ->Arg(80)
    ->Arg(160)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
