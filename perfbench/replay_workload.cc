// replay-steal16: Section 6 on real threads.  A seeded Bing instance with
// weights {1, 4, 16, 64} runs on a 2-worker steal-16-first ThreadPool in
// two passes, after ~2 s of warm-up traffic from a different seed:
//
//   1. open loop: 10 us simulator units rendered as 1 us of spin (jobs
//      are ~1 ms), paced at ~50% utilization by the benchmark's main
//      thread, the only load thread, through submit_dag_spinning.
//      replay_instance would time flows from submission, so the benchmark
//      paces the precomputed schedule itself and times each flow from its
//      due time.  This pass gives the latency figures.
//   2. drain: the same jobs with units rendered as 50 ns of spin,
//      submitted all at once and drained, in rounds.  Here the pool's own
//      per-job cost (submission, deques, steals, admissions, idle waits)
//      is about a third of a job's time, so the completion rate and the
//      CPU beyond the jobs' spin are set by the runtime, not by the
//      schedule.
//
// The step engine's steal-16-first schedule and BWF's weighted schedule of
// the same instance on 2 processors, with the streamed lower bounds, are
// the model the runtime is compared with.  No service code runs.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "perfbench/bench.h"
#include "perfbench/reference.h"
#include "src/core/bounds.h"
#include "src/core/job_source.h"
#include "src/core/run.h"
#include "src/metrics/streaming_stats.h"
#include "src/runtime/dag_executor.h"
#include "src/runtime/thread_pool.h"
#include "src/sim/trace.h"
#include "src/workload/distributions.h"
#include "src/workload/generator.h"

namespace perfbench {

namespace {

using namespace pjsched;

constexpr unsigned kWorkers = 2;
constexpr unsigned kStealK = 16;
constexpr double kUnitsPerMs = 100.0;      // the Figure-2 unit: 10 us of work
constexpr double kNsPerUnit = 1000.0;      // open loop: 1 us of spin
constexpr double kDrainNsPerUnit = 50.0;   // drain: 50 ns of spin
constexpr double kUtilization = 0.5;
constexpr double kWarmupSeconds = 2.0;
/// The open loop lasts this share of --seconds; the drain rounds, about
/// 0.19 s each at 10 s, take about the rest.
constexpr double kOpenLoopShare = 0.5;
constexpr int kDrainRounds = 25;
constexpr int kSetupSamples = 25;
/// Sleep until this close to a due time, then spin, so submissions land
/// within microseconds of their schedule.
constexpr auto kSpinWindow = std::chrono::microseconds(200);

/// Simulated arrival rate giving kUtilization on kWorkers processors.
double sim_qps(const workload::WorkDistribution& dist) {
  return kUtilization * kWorkers * 1000.0 / dist.mean_ms();
}

workload::GeneratorConfig generator_config(const workload::WorkDistribution& dist,
                                           std::uint64_t seed,
                                           double wall_seconds) {
  workload::GeneratorConfig gen;
  gen.qps = sim_qps(dist);
  gen.units_per_ms = kUnitsPerMs;
  gen.seed = seed;
  gen.weight_classes = {1.0, 4.0, 16.0, 64.0};
  // Wall time runs kNsPerUnit / (1e6 / kUnitsPerMs) = 10x faster than
  // simulated time, so the wall arrival rate is 10 x qps.
  const double wall_rate = gen.qps * 1e6 / (kUnitsPerMs * kNsPerUnit);
  gen.num_jobs = static_cast<std::size_t>(std::llround(wall_seconds * wall_rate));
  return gen;
}

runtime::PoolOptions pool_options(std::uint64_t seed) {
  runtime::PoolOptions options;
  options.workers = kWorkers;
  options.steal_k = kStealK;
  options.seed = seed;
  return options;
}

struct Pass {
  std::vector<double> flows_ms;  ///< open loop, completed jobs, due -> completion
  std::vector<double> late_ms;   ///< open loop, submission - due, per job
  std::vector<double> drain_jobs_per_s;     ///< per drain round
  std::vector<double> drain_overhead_us;    ///< per drain round, per job
  std::uint64_t jobs = 0;
  std::uint64_t completed = 0;
  std::uint64_t expected_tasks = 0;
  runtime::PoolStats stats;  ///< delta over the pass
};

runtime::PoolStats minus(const runtime::PoolStats& a,
                         const runtime::PoolStats& b) {
  runtime::PoolStats d;
  d.steal_attempts = a.steal_attempts - b.steal_attempts;
  d.successful_steals = a.successful_steals - b.successful_steals;
  d.admissions = a.admissions - b.admissions;
  d.tasks_executed = a.tasks_executed - b.tasks_executed;
  d.task_slab_blocks = a.task_slab_blocks - b.task_slab_blocks;
  d.task_remote_frees = a.task_remote_frees - b.task_remote_frees;
  return d;
}

/// The handles that completed, and the latest completion time.
struct Completions {
  std::uint64_t completed = 0;
  Clock::time_point last;
};

Completions completions(const std::vector<runtime::JobHandle>& handles,
                        Clock::time_point start) {
  Completions c{0, start};
  for (const runtime::JobHandle& h : handles) {
    if (h->outcome() != runtime::JobOutcome::kCompleted) continue;
    ++c.completed;
    c.last = std::max(c.last, h->completion_time());
  }
  return c;
}

/// The open-loop pass: replays `inst` paced from its due times.
void open_loop(runtime::ThreadPool& pool, const core::Instance& inst,
               Tracer* tracer, Pass& pass) {
  const std::vector<core::JobId> order = inst.arrival_order();
  std::vector<runtime::JobHandle> handles(inst.size());
  std::vector<Clock::time_point> due(inst.size());
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  for (const core::JobId j : order) {
    const core::JobSpec& job = inst.jobs[j];
    due[j] = start + std::chrono::nanoseconds(static_cast<std::int64_t>(
                         job.arrival * kNsPerUnit));
    if (Clock::now() < due[j] - kSpinWindow)
      std::this_thread::sleep_until(due[j] - kSpinWindow);
    while (Clock::now() < due[j]) {
    }
    pass.late_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - due[j])
            .count());
    Scope span(tracer, Layer::kRuntime, "submit_dag_spinning", j + 1);
    handles[j] =
        runtime::submit_dag_spinning(pool, job.graph, kNsPerUnit, job.weight);
    pass.expected_tasks += job.graph.node_count() + 1;  // + the root task
  }
  pool.wait_all();
  for (std::size_t j = 0; j < handles.size(); ++j) {
    ++pass.jobs;
    if (handles[j]->outcome() != runtime::JobOutcome::kCompleted) continue;
    ++pass.completed;
    pass.flows_ms.push_back(std::chrono::duration<double, std::milli>(
                                handles[j]->completion_time() - due[j])
                                .count());
  }
}

/// What a drain round needs to know about the instance.
struct DrainScale {
  double spin_s;      ///< the jobs' own spin, seconds
  double size_scale;  ///< the instance's mean job size / the distribution's
};

/// One drain round: every job of `inst` submitted at once, then drained.
/// Records the completion rate (first submission -> last completion) in
/// jobs of the distribution's mean size, and the CPU per job beyond the
/// jobs' own spin: process CPU minus what the benchmark thread burns
/// waiting, which leaves submission in.  The seed's sample of job sizes
/// alone moves the raw rate by 2-4%; the size scale takes that out.
void drain_round(runtime::ThreadPool& pool, const core::Instance& inst,
                 const DrainScale& scale, Tracer* tracer, Pass& pass) {
  std::vector<runtime::JobHandle> handles;
  handles.reserve(inst.size());
  const double cpu0 = process_cpu_seconds();
  const Clock::time_point start = Clock::now();
  for (std::size_t j = 0; j < inst.size(); ++j) {
    const core::JobSpec& job = inst.jobs[j];
    Scope span(tracer, Layer::kRuntime, "submit_dag_spinning",
               static_cast<std::uint32_t>(j + 1));
    handles.push_back(runtime::submit_dag_spinning(pool, job.graph,
                                                   kDrainNsPerUnit, job.weight));
    pass.expected_tasks += job.graph.node_count() + 1;
  }
  const double waiting0 = thread_cpu_seconds();
  pool.wait_all();
  const double waiting = thread_cpu_seconds() - waiting0;
  const double cpu = process_cpu_seconds() - cpu0 - waiting;
  const Completions c = completions(handles, start);
  pass.jobs += handles.size();
  pass.completed += c.completed;
  const double done = static_cast<double>(c.completed);
  pass.drain_jobs_per_s.push_back(done * scale.size_scale /
                                  seconds_between(start, c.last));
  pass.drain_overhead_us.push_back((cpu - scale.spin_s) / done * 1e6);
}

/// Runs both passes on `pool`, then shuts it down (joining the workers
/// makes its counters final).
Pass run_pass(runtime::ThreadPool& pool, const core::Instance& inst,
              const workload::WorkDistribution& dist, Tracer* tracer) {
  Pass pass;
  double work = 0.0;
  for (const core::JobSpec& job : inst.jobs)
    work += static_cast<double>(job.graph.total_work());
  const DrainScale scale{
      work * kDrainNsPerUnit * 1e-9,
      work / static_cast<double>(inst.size()) / (dist.mean_ms() * kUnitsPerMs)};
  const runtime::PoolStats before = pool.stats();
  open_loop(pool, inst, tracer, pass);
  for (int round = 0; round < kDrainRounds; ++round)
    drain_round(pool, inst, scale, tracer, pass);
  pool.shutdown();
  pass.stats = minus(pool.stats(), before);
  return pass;
}

/// Warm-up: different-seed traffic through a pool about to be measured
/// absorbs the first open-loop run's stall.  Nothing of it is recorded.
void warm_up(runtime::ThreadPool& pool, const workload::WorkDistribution& dist,
             std::uint64_t seed) {
  const core::Instance warm = workload::generate_instance(
      dist, generator_config(dist, seed ^ 0x9e3779b97f4a7c15ULL, kWarmupSeconds));
  const std::vector<core::JobId> order = warm.arrival_order();
  const Clock::time_point start = Clock::now();
  for (const core::JobId j : order) {
    std::this_thread::sleep_until(
        start + std::chrono::nanoseconds(static_cast<std::int64_t>(
                    warm.jobs[j].arrival * kNsPerUnit)));
    runtime::submit_dag_spinning(pool, warm.jobs[j].graph, kNsPerUnit);
  }
  pool.wait_all();
}

std::string exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The benchmark's trace sink: counts intervals and sums delivered work.
/// Its callbacks carry no spans: a span per interval would cost more than
/// the callback and land in the engine's self time.
class CountingSink final : public sim::TraceSink {
 public:
  void on_interval(const sim::WorkInterval& iv) override {
    ++intervals_;
    work_ += static_cast<long double>(iv.end - iv.start);
  }

  std::uint64_t intervals() const { return intervals_; }
  long double work() const { return work_; }

 private:
  std::uint64_t intervals_ = 0;
  long double work_ = 0.0L;
};

/// The paper's comparisons on the replayed instance, on the pool's
/// kWorkers processors at speed 1: steal-16-first (Section 6) against the
/// combined bound, and BWF (Theorem 7.1) with a spill trace against the
/// weighted bound.  Times are in open-loop wall ms (one unit = kNsPerUnit
/// of spin).
struct Model {
  core::StreamRunResult steal;
  core::StreamRunResult bwf;
  core::LowerBoundSet bounds;
  std::size_t samples = 0;
  std::uint64_t intervals = 0;
  long double trace_work = 0.0L;

  static double ms(double units) { return units * kNsPerUnit * 1e-6; }
  double p99_ms() const { return ms(steal.flow.p99); }
  double ratio() const { return steal.max_flow / bounds.combined; }
  double bwf_ratio() const {
    return bwf.max_weighted_flow / bounds.weighted_combined;
  }
  /// The pinned outputs of one schedule: its max (weighted) flow against
  /// `bound`, both in units.
  static SimReference pinned(const core::StreamRunResult& run, double flow,
                             double bound, std::uint64_t intervals) {
    const core::EngineStats& s = run.stats;
    return {ms(flow),         run.argmax_flow,     ms(bound),
            s.steal_attempts, s.successful_steals, s.admissions,
            s.macro_jumps,    s.decision_points,   s.fast_decisions,
            s.arena_slots,    s.peak_live_jobs,    intervals};
  }
  SimReference pinned_steal() const {
    return pinned(steal, steal.max_flow, bounds.combined, 0);
  }
  SimReference pinned_bwf() const {
    return pinned(bwf, bwf.max_weighted_flow, bounds.weighted_combined,
                  intervals);
  }
};

Model model(const core::Instance& inst, std::uint64_t seed, Tracer* tracer) {
  Model m;
  const core::MachineConfig machine{kWorkers, 1.0};
  core::SchedulerSpec spec = core::parse_scheduler("steal-16-first");
  spec.seed = seed;
  // A reservoir as large as the instance keeps the quantiles exact.
  metrics::StreamingFlowStats stats(
      metrics::StreamingFlowStats::Options{.reservoir = inst.size()});
  core::InstanceSource steal_source(inst);
  core::InstanceSource bwf_source(inst);
  core::InstanceSource bound_source(inst);
  CountingSink sink;
  sim::Trace trace(&sink);
  {
    Scope span(tracer, Layer::kSim, "run_scheduler_streamed");
    m.steal = core::run_scheduler_streamed(steal_source, spec, machine, &stats);
  }
  {
    Scope span(tracer, Layer::kSim, "run_scheduler_streamed");
    m.bwf = core::run_scheduler_streamed(
        bwf_source, core::parse_scheduler("bwf"), machine, nullptr, &trace);
  }
  {
    Scope span(tracer, Layer::kCore, "stream_lower_bounds");
    m.bounds = core::stream_lower_bounds(bound_source, kWorkers);
  }
  m.samples = stats.count();
  m.intervals = sink.intervals();
  m.trace_work = sink.work();
  return m;
}

void check_model(const Model& m, const core::Instance& inst,
                 const Options& options, Outcome& out) {
  long double work = 0.0L;
  for (const core::JobSpec& job : inst.jobs)
    work += static_cast<long double>(job.graph.total_work());
  out.check(m.steal.jobs == inst.size() && m.bwf.jobs == inst.size() &&
                m.bounds.jobs == inst.size() && m.samples == inst.size(),
            "the model did not schedule every job");
  out.check(m.ratio() >= 1.0 && m.bwf_ratio() >= 1.0,
            "model ratio below 1: the bound exceeds the schedule");
  out.check(std::fabs(m.trace_work - work) <= 1e-9L * work,
            "BWF's trace intervals do not deliver the generated work");
  if (options.seed == kDefaultSeed && options.seconds == kReplayReference.seconds)
    out.check(m.pinned_steal() == kReplayReference.steal &&
                  m.pinned_bwf() == kReplayReference.bwf &&
                  m.p99_ms() == kReplayReference.model_p99_ms,
              "default-seed model differs from the pinned reference; "
              "observed " + to_string(m.pinned_steal()) + ", " +
                  to_string(m.pinned_bwf()) + ", " + exact(m.p99_ms()));
}

}  // namespace

Outcome run_replay(const Options& options, Tracer* tracer) {
  Outcome out;
  out.threads = kWorkers + 1;
  const workload::DiscreteWorkDistribution dist = workload::bing_distribution();
  const workload::GeneratorConfig gen =
      generator_config(dist, options.seed, kOpenLoopShare * options.seconds);

  const core::Instance inst = workload::generate_instance(dist, gen);
  auto pool = std::make_unique<runtime::ThreadPool>(pool_options(options.seed));
  warm_up(*pool, dist, options.seed);
  const Pass pass = run_pass(*pool, inst, dist, nullptr);
  pool.reset();

  // Set-up: generate_instance plus starting the pool, several times, once
  // the host is warm.  Timed first thing in the process, it reads how
  // fast idle vCPUs wake up more than what the program does.
  std::vector<double> setups;
  for (int i = 0; i < kSetupSamples; ++i) {
    const auto t0 = Clock::now();
    const core::Instance fresh = workload::generate_instance(dist, gen);
    runtime::ThreadPool fresh_pool(pool_options(options.seed));
    setups.push_back(seconds_between(t0, Clock::now()));
  }

  auto check_pass = [&](const Pass& p) {
    out.attempted += p.jobs;
    out.failed += p.jobs - p.completed;
    out.check(p.completed == p.jobs, "a replayed job did not complete");
    out.check(p.stats.tasks_executed == p.expected_tasks,
              "tasks executed != tasks the DAGs define");
  };
  check_pass(pass);

  const double jobs_per_s = median(pass.drain_jobs_per_s);
  if (!options.trace) {
    check_model(model(inst, options.seed, nullptr), inst, options, out);
    out.add("jobs_per_s", jobs_per_s, "jobs/s");
    out.add("overhead_us_per_job", median(pass.drain_overhead_us), "us");
    out.add("setup_s", median(setups), "s");
    return out;
  }

  // Traced: the model, then a fresh set-up and pool, spans around every
  // call, allocations counted.
  const AllocCounting counting;
  const Model sim = model(inst, options.seed, tracer);
  check_model(sim, inst, options, out);
  core::Instance traced_inst;
  {
    Scope span(tracer, Layer::kWorkload, "generate_instance");
    traced_inst = workload::generate_instance(dist, gen);
  }
  std::unique_ptr<runtime::ThreadPool> traced_pool;
  {
    Scope span(tracer, Layer::kRuntime, "ThreadPool::ThreadPool");
    traced_pool =
        std::make_unique<runtime::ThreadPool>(pool_options(options.seed));
  }
  warm_up(*traced_pool, dist, options.seed);
  const Pass traced = run_pass(*traced_pool, traced_inst, dist, tracer);
  traced_pool.reset();
  check_pass(traced);

  std::uint64_t nodes = 0;
  for (const core::JobSpec& job : traced_inst.jobs) nodes += job.graph.node_count();
  const double p99 = quantile(pass.flows_ms, 0.99);
  double sum = 0.0;
  for (const double f : pass.flows_ms) sum += f;
  out.add("p50_ms", quantile(pass.flows_ms, 0.5), "ms");
  out.add("mean_ms", sum / static_cast<double>(pass.flows_ms.size()), "ms");
  out.add("p99_ms", p99, "ms");
  out.add("workload.self_s", tracer->call_self_seconds("generate_instance"), "s");
  out.add("workload.jobs", static_cast<double>(traced_inst.size()), "count");
  out.add("workload.nodes", static_cast<double>(nodes), "count");
  out.add("runtime.submit_s", tracer->call_self_seconds("submit_dag_spinning"),
          "s");
  const runtime::PoolStats& s = traced.stats;
  out.add("runtime.tasks_executed", static_cast<double>(s.tasks_executed), "count");
  out.add("runtime.steal_attempts", static_cast<double>(s.steal_attempts), "count");
  out.add("runtime.steal_success", static_cast<double>(s.successful_steals), "count");
  out.add("runtime.admissions", static_cast<double>(s.admissions), "count");
  out.add("runtime.task_slab_blocks", static_cast<double>(s.task_slab_blocks), "count");
  out.add("runtime.task_remote_frees", static_cast<double>(s.task_remote_frees),
          "count");
  const core::EngineStats& e = sim.steal.stats;
  const core::EngineStats& b = sim.bwf.stats;
  const double jobs = static_cast<double>(inst.size());
  out.add("max_flow_ms", Model::ms(sim.steal.max_flow), "ms");
  out.add("ratio", sim.ratio(), "1");
  out.add("bwf_max_weighted_flow_ms", Model::ms(sim.bwf.max_weighted_flow), "ms");
  out.add("bwf_ratio", sim.bwf_ratio(), "1");
  out.add("sim.self_s", tracer->call_self_seconds("run_scheduler_streamed"), "s");
  out.add("sim.allocs_per_job",
          static_cast<double>(tracer->self_allocations(Layer::kSim)) / (2 * jobs),
          "1");
  out.add("sim.peak_live_jobs", static_cast<double>(e.peak_live_jobs), "count");
  out.add("sim.arena_slots", static_cast<double>(e.arena_slots), "count");
  out.add("sim.busy_share",
          share(static_cast<double>(e.work_steps),
                static_cast<double>(e.work_steps + e.idle_steps)),
          "1");
  out.add("sim.steal_attempts", static_cast<double>(e.steal_attempts), "count");
  out.add("sim.steal_success", static_cast<double>(e.successful_steals), "count");
  out.add("sim.admissions", static_cast<double>(e.admissions), "count");
  out.add("sim.macro_jumps", static_cast<double>(e.macro_jumps), "count");
  out.add("sim.decision_points", static_cast<double>(b.decision_points), "count");
  out.add("sim.fast_share",
          share(static_cast<double>(b.fast_decisions),
                static_cast<double>(b.decision_points)),
          "1");
  out.add("sim.trace_intervals", static_cast<double>(sim.intervals), "count");
  out.add("sim.trace_intervals_per_job", static_cast<double>(sim.intervals) / jobs,
          "1");
  out.add("core.bounds_self_s", tracer->call_self_seconds("stream_lower_bounds"),
          "s");
  out.add("core.bound_ms", Model::ms(sim.bounds.combined), "ms");
  out.add("core.weighted_bound_ms", Model::ms(sim.bounds.weighted_combined), "ms");
  out.add("metrics.samples", static_cast<double>(sim.samples), "count");
  out.add("sim.model_p99_ms", sim.p99_ms(), "ms");
  out.add("runtime.model_gap", p99 / sim.p99_ms(), "1");
  out.add("loadgen.late_p99_ms", quantile(pass.late_ms, 0.99), "ms");
  out.add("loadgen.late_max_ms", quantile(pass.late_ms, 1.0), "ms");
  out.add("bench.trace_overhead",
          relative_change(median(traced.drain_jobs_per_s), jobs_per_s), "1");
  return out;
}

}  // namespace perfbench
