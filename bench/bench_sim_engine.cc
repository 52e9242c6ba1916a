// Micro-benchmarks (google-benchmark) for the simulation substrate: RNG
// throughput, event-engine decision rate, and step-engine worker-step rate.
// These establish that the Figure-2 experiments (millions of simulated
// steps) run in seconds, and catch performance regressions in the engines.
//
// The BM_Baseline* group is the perf-snapshot suite: the `bench_baseline`
// CMake target runs it with --benchmark_filter=Baseline in JSON mode and
// tools/make_bench_baseline.py distills the result into BENCH_sim.json
// (steps/sec, trials/sec, wall time) so future PRs have a trajectory to
// compare against.
// Arm the global operator-new counter for this binary: the scaling suite
// asserts that streamed runs allocate O(1) per job (no per-slice or
// per-decision allocations in steady state).
#define PJSCHED_ENABLE_ALLOC_PROBE
#include "bench/rss_probe.h"

#include <benchmark/benchmark.h>

#include <cstdlib>

#include "src/core/bounds.h"
#include "src/core/multi_trial.h"
#include "src/core/run.h"
#include "src/dag/builders.h"
#include "src/runtime/parallel_trials.h"
#include "src/sched/fifo.h"
#include "src/sched/work_stealing.h"
#include "src/sim/packed_dag.h"
#include "src/sim/rng.h"
#include "src/sim/step_engine.h"
#include "src/workload/distributions.h"
#include "src/workload/generator.h"
#include "src/workload/streaming_source.h"

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
BENCHMARK(BM_EventEngineFifo)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

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

// --- BENCH_sim.json baseline suite --------------------------------------

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

void run_step_baseline(benchmark::State& state, bool exact_steps) {
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

void BM_BaselineStepEngineFast(benchmark::State& state) {
  run_step_baseline(state, /*exact_steps=*/false);
}
BENCHMARK(BM_BaselineStepEngineFast)->Unit(benchmark::kMillisecond);

void BM_BaselineStepEngineExact(benchmark::State& state) {
  run_step_baseline(state, /*exact_steps=*/true);
}
BENCHMARK(BM_BaselineStepEngineExact)->Unit(benchmark::kMillisecond);

// Figure-2-scale event-engine workload: 2000 bing-distribution jobs arriving
// at 4000 qps on a 16-processor machine — a backlogged regime, so the active
// set is large and the exact path's per-slice rebuild + policy sort dominate.
// Fast vs exact isolates the virtual-work-clock path (incremental active
// set, completion heap, span traces) against the per-slice reference loop;
// the instance, policy, and results are bit-identical across the pair
// (tests/event_fast_path_test.cc).
void run_event_baseline(benchmark::State& state, bool exact_engine) {
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

void BM_BaselineEventEngineFast(benchmark::State& state) {
  run_event_baseline(state, /*exact_engine=*/false);
}
BENCHMARK(BM_BaselineEventEngineFast)->Unit(benchmark::kMillisecond);

void BM_BaselineEventEngineExact(benchmark::State& state) {
  run_event_baseline(state, /*exact_engine=*/true);
}
BENCHMARK(BM_BaselineEventEngineExact)->Unit(benchmark::kMillisecond);

core::TrialConfig baseline_trial_config() {
  core::TrialConfig cfg;
  cfg.trials = 16;
  cfg.generator.num_jobs = 300;
  cfg.generator.qps = 1000.0;
  cfg.generator.seed = 5;
  cfg.machine = {8, 1.0};
  cfg.scheduler.kind = core::SchedulerKind::kAdmitFirst;
  cfg.scheduler.seed = 3;
  return cfg;
}

void BM_BaselineTrialsSequential(benchmark::State& state) {
  const auto dist = workload::bing_distribution();
  const auto cfg = baseline_trial_config();
  for (auto _ : state) {
    auto out = core::run_trials(dist, cfg);
    benchmark::DoNotOptimize(out.max_flow.mean);
  }
  // items/sec = trials per second.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cfg.trials));
}
BENCHMARK(BM_BaselineTrialsSequential)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_BaselineTrialsParallel(benchmark::State& state) {
  const auto dist = workload::bing_distribution();
  const auto cfg = baseline_trial_config();
  for (auto _ : state) {
    auto out = runtime::run_trials_parallel(dist, cfg);
    benchmark::DoNotOptimize(out.max_flow.mean);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cfg.trials));
}
// UseRealTime: the work runs on pool threads, so main-thread CPU time
// would wildly overstate trials/sec; wall clock is the honest measure.
BENCHMARK(BM_BaselineTrialsParallel)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- PackedDag vs ReadyTracker inner loop (BENCH_sim.json `bounds`) -------
//
// The exact frontier drain the engines run per job, on the exact recycling
// pattern the arena uses: one tracker object re-bound across 256 generated
// bing DAGs per iteration, claim-head + complete until done.  The Packed
// variant is what the engines now execute (SoA slot layout, O(1) head
// claim); the Tracker variant is the pre-slot representation kept for the
// runtime executor.  make_bench_baseline.py turns the items/sec ratio into
// the recorded before/after speedup.

std::vector<dag::Dag> packed_bench_dags() {
  std::vector<dag::Dag> dags;
  core::Instance inst = bench_instance(256);
  dags.reserve(inst.jobs.size());
  for (core::JobSpec& job : inst.jobs) dags.push_back(std::move(job.graph));
  return dags;
}

std::int64_t total_nodes(const std::vector<dag::Dag>& dags) {
  std::int64_t nodes = 0;
  for (const dag::Dag& d : dags)
    nodes += static_cast<std::int64_t>(d.node_count());
  return nodes;
}

void BM_BaselinePackedDagInnerLoopPacked(benchmark::State& state) {
  const std::vector<dag::Dag> dags = packed_bench_dags();
  sim::PackedDag frontier;
  for (auto _ : state) {
    double work = 0.0;
    for (const dag::Dag& d : dags) {
      frontier.assign(d);
      while (!frontier.done()) {
        const dag::NodeId v = frontier.ready().front();
        frontier.claim(v);
        work += static_cast<double>(frontier.work_of(v));
        frontier.complete(v);
      }
    }
    benchmark::DoNotOptimize(work);
  }
  state.SetItemsProcessed(state.iterations() * total_nodes(dags));
}
BENCHMARK(BM_BaselinePackedDagInnerLoopPacked)
    ->Unit(benchmark::kMicrosecond);

void BM_BaselinePackedDagInnerLoopTracker(benchmark::State& state) {
  const std::vector<dag::Dag> dags = packed_bench_dags();
  dag::ReadyTracker frontier;
  for (auto _ : state) {
    double work = 0.0;
    for (const dag::Dag& d : dags) {
      frontier.reset(d);
      while (!frontier.done()) {
        const dag::NodeId v = frontier.ready().front();
        frontier.claim(v);
        work += static_cast<double>(d.work_of(v));
        frontier.complete(v);
      }
    }
    benchmark::DoNotOptimize(work);
  }
  state.SetItemsProcessed(state.iterations() * total_nodes(dags));
}
BENCHMARK(BM_BaselinePackedDagInnerLoopTracker)
    ->Unit(benchmark::kMicrosecond);

void BM_InstanceGeneration(benchmark::State& state) {
  for (auto _ : state) {
    auto inst = bench_instance(2000);
    benchmark::DoNotOptimize(inst.jobs.size());
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_InstanceGeneration)->Unit(benchmark::kMillisecond);

// --- Asymptotic scaling gate (BENCH_sim.json `scaling` section) -----------
//
// One decade curve per engine, 10^4 -> 10^6 jobs (10^7 behind
// PJSCHED_SCALING_XL=1), streaming the bing workload at 1000 qps on 16
// processors (utilization ~0.69: stable, so the live-job set is O(1) in the
// instance length).  Each point records jobs/sec, peak RSS, allocations per
// job, and the peak live-job count.  The memory claims in executable form:
//
//  * flat peak_rss_bytes and allocs_per_job across decades == O(live jobs)
//    resident state and zero steady-state (per-slice) allocations;
//  * the BM_Scaling*Materialized counterparts run the same instances through
//    the classic materialized path, and tools/make_bench_baseline.py turns
//    the RSS ratio at the largest common decade into the >= 10x headroom
//    acceptance number.
//
// Single iteration per point: the subject is the run's footprint, not
// per-iteration noise, and VmHWM is a per-process high-water mark that
// reset_peak_rss() rewinds between points.

constexpr std::size_t kScalingProcessors = 16;
// Hard per-job allocation ceiling for streamed runs.  A steady-state leak —
// any allocation per decision slice — would blow past this within one
// decade (the engines take ~35 slices/job on this workload).  Measured
// RelWithDebInfo baseline is ~32-34 allocs/job, flat across decades (DAG
// construction + arena map churn); the ceiling leaves room for
// allocator/libstdc++ variance without letting O(slices) growth through.
constexpr double kScalingAllocBudgetPerJob = 64.0;

workload::GeneratorConfig scaling_config(std::size_t jobs) {
  workload::GeneratorConfig cfg;
  cfg.num_jobs = jobs;
  cfg.qps = 1000.0;
  cfg.seed = 5;
  return cfg;
}

// FIFO for the event engine; admit-first (k = 0) for the step engine.
// Admit-first, not steal-16-first: k failed steals gate each admission, so
// at speed 1 a steal-16 worker pool admits slower than jobs arrive and the
// global queue grows linearly with the instance (the paper's Theorem 4.1
// needs (k+1+eps)-speed) — unusable for a bounded-live-set scaling curve.
// Admit-first is (1+eps)-speed (Corollary 4.3) and stable at u ~ 0.69.
core::SchedulerSpec scaling_scheduler(bool event_engine) {
  core::SchedulerSpec spec;
  if (event_engine) {
    spec.kind = core::SchedulerKind::kFifo;
  } else {
    spec.kind = core::SchedulerKind::kAdmitFirst;
    spec.seed = 7;
  }
  return spec;
}

void run_scaling_streamed(benchmark::State& state, bool event_engine) {
  const auto dist = workload::bing_distribution();
  const auto jobs = static_cast<std::size_t>(state.range(0));
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    benchprobe::reset_peak_rss();
    const std::uint64_t alloc_start = benchprobe::allocation_count();
    workload::GeneratedJobSource source(dist, scaling_config(jobs));
    const auto res = core::run_scheduler_streamed(
        source, scaling_scheduler(event_engine),
        {kScalingProcessors, 1.0});
    benchmark::DoNotOptimize(res.max_flow);
    allocs = benchprobe::allocation_count() - alloc_start;
    state.counters["peak_rss_bytes"] = static_cast<double>(
        benchprobe::peak_rss_bytes());
    state.counters["allocs_per_job"] =
        static_cast<double>(allocs) / static_cast<double>(jobs);
    state.counters["peak_live_jobs"] =
        static_cast<double>(res.stats.peak_live_jobs);
    state.counters["arena_slots"] =
        static_cast<double>(res.stats.arena_slots);
    if (res.jobs != jobs) {
      state.SkipWithError("streamed run lost jobs");
      return;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs));
  if (static_cast<double>(allocs) >
      kScalingAllocBudgetPerJob * static_cast<double>(jobs))
    state.SkipWithError("allocation budget exceeded: steady-state leak");
}

void run_scaling_materialized(benchmark::State& state, bool event_engine) {
  const auto dist = workload::bing_distribution();
  const auto jobs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchprobe::reset_peak_rss();
    const auto inst = workload::generate_instance(dist, scaling_config(jobs));
    const auto res = core::run_scheduler(inst, scaling_scheduler(event_engine),
                                         {kScalingProcessors, 1.0});
    benchmark::DoNotOptimize(res.max_flow);
    state.counters["peak_rss_bytes"] = static_cast<double>(
        benchprobe::peak_rss_bytes());
    state.counters["peak_live_jobs"] =
        static_cast<double>(res.stats.peak_live_jobs);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs));
}

// Streamed lower bounds: one O(1)-state pass (no arena, no engine), so its
// curve is the floor the engine curves are compared against.  The alloc
// budget still applies — per-job DAG construction inside the source is the
// only allowed allocation source.
void run_scaling_bounds_streamed(benchmark::State& state) {
  const auto dist = workload::bing_distribution();
  const auto jobs = static_cast<std::size_t>(state.range(0));
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    benchprobe::reset_peak_rss();
    const std::uint64_t alloc_start = benchprobe::allocation_count();
    workload::GeneratedJobSource source(dist, scaling_config(jobs));
    const auto bounds =
        core::stream_lower_bounds(source, kScalingProcessors);
    benchmark::DoNotOptimize(bounds.combined);
    allocs = benchprobe::allocation_count() - alloc_start;
    state.counters["peak_rss_bytes"] = static_cast<double>(
        benchprobe::peak_rss_bytes());
    state.counters["allocs_per_job"] =
        static_cast<double>(allocs) / static_cast<double>(jobs);
    if (bounds.jobs != jobs) {
      state.SkipWithError("streamed bounds lost jobs");
      return;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs));
  if (static_cast<double>(allocs) >
      kScalingAllocBudgetPerJob * static_cast<double>(jobs))
    state.SkipWithError("allocation budget exceeded: steady-state leak");
}

void run_scaling_bounds_materialized(benchmark::State& state) {
  const auto dist = workload::bing_distribution();
  const auto jobs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchprobe::reset_peak_rss();
    const auto inst = workload::generate_instance(dist, scaling_config(jobs));
    benchmark::DoNotOptimize(
        core::lower_bounds(inst, kScalingProcessors).combined);
    benchmark::DoNotOptimize(
        core::lower_bounds(inst, kScalingProcessors).weighted_combined);
    state.counters["peak_rss_bytes"] = static_cast<double>(
        benchprobe::peak_rss_bytes());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs));
}

void BM_ScalingEventEngineStreamed(benchmark::State& state) {
  run_scaling_streamed(state, /*event_engine=*/true);
}
void BM_ScalingStepEngineStreamed(benchmark::State& state) {
  run_scaling_streamed(state, /*event_engine=*/false);
}
void BM_ScalingEventEngineMaterialized(benchmark::State& state) {
  run_scaling_materialized(state, /*event_engine=*/true);
}
void BM_ScalingStepEngineMaterialized(benchmark::State& state) {
  run_scaling_materialized(state, /*event_engine=*/false);
}
void BM_ScalingBoundsStreamed(benchmark::State& state) {
  run_scaling_bounds_streamed(state);
}
void BM_ScalingBoundsMaterialized(benchmark::State& state) {
  run_scaling_bounds_materialized(state);
}

void register_scaling(const char* name, void (*fn)(benchmark::State&),
                      bool xl_decade) {
  auto* b = benchmark::RegisterBenchmark(name, fn)
                ->Arg(10000)
                ->Arg(100000)
                ->Arg(1000000)
                ->Iterations(1)
                ->Unit(benchmark::kMillisecond);
  if (xl_decade) b->Arg(10000000);
}

// Registration order matters for readability of --benchmark_filter=Scaling
// output only; the streamed/materialized pairing is by name.  The 10^7
// decade is opt-in (several GB materialized, minutes of wall time).
const int scaling_registered = [] {
  const char* xl_env = std::getenv("PJSCHED_SCALING_XL");
  const bool xl = xl_env != nullptr && *xl_env != '\0' && *xl_env != '0';
  register_scaling("BM_ScalingEventEngineStreamed",
                   BM_ScalingEventEngineStreamed, xl);
  register_scaling("BM_ScalingStepEngineStreamed",
                   BM_ScalingStepEngineStreamed, xl);
  register_scaling("BM_ScalingBoundsStreamed", BM_ScalingBoundsStreamed, xl);
  // Materialized comparison points last: the CI smoke filter selects the
  // streamed curves only; the full bench_baseline run includes these to
  // compute the streamed-vs-materialized RSS ratio.
  register_scaling("BM_ScalingEventEngineMaterialized",
                   BM_ScalingEventEngineMaterialized, /*xl_decade=*/false);
  register_scaling("BM_ScalingStepEngineMaterialized",
                   BM_ScalingStepEngineMaterialized, /*xl_decade=*/false);
  register_scaling("BM_ScalingBoundsMaterialized",
                   BM_ScalingBoundsMaterialized, /*xl_decade=*/false);
  return 0;
}();

}  // namespace

#include "bench/gbench_main.h"
