// Streamed-vs-materialized cross-checks: the tentpole contract that a
// memory-bounded streamed run (JobSource + job arena + StreamingFlowStats)
// is bit-identical to the classic materialized run of the same instance —
// same extremes, same argmax, same engine counters, same traces — while
// keeping only O(live jobs) state resident (EngineStats::arena_slots).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/core/bounds.h"
#include "src/core/job_source.h"
#include "src/core/run.h"
#include "src/core/types.h"
#include "src/dag/builders.h"
#include "src/metrics/streaming_stats.h"
#include "src/sim/event_engine.h"
#include "src/sim/trace.h"
#include "src/workload/distributions.h"
#include "src/workload/generator.h"
#include "src/workload/streaming_source.h"

namespace pjsched {
namespace {

workload::GeneratorConfig base_config(std::size_t jobs) {
  workload::GeneratorConfig cfg;
  cfg.num_jobs = jobs;
  cfg.qps = 800.0;
  cfg.units_per_ms = 100.0;
  cfg.seed = 5;
  cfg.weight_classes = {1.0, 2.0, 8.0};
  return cfg;
}

core::MachineConfig machine16() {
  core::MachineConfig m;
  m.processors = 16;
  m.speed = 1.0;
  return m;
}

void expect_identical(const core::StreamRunResult& mat,
                      const core::StreamRunResult& str) {
  SCOPED_TRACE(mat.scheduler_name);
  EXPECT_EQ(str.scheduler_name, mat.scheduler_name);
  EXPECT_EQ(str.jobs, mat.completion.size());
  // Per-job vectors come with the Instance run only.
  EXPECT_TRUE(str.completion.empty());
  EXPECT_TRUE(str.job_flow.empty());
  // The paper's objective and its argmax: exact, bitwise.
  EXPECT_EQ(str.max_flow, mat.max_flow);
  EXPECT_EQ(str.max_weighted_flow, mat.max_weighted_flow);
  EXPECT_EQ(str.argmax_flow, mat.argmax_flow);
  EXPECT_EQ(str.makespan, mat.makespan);
  // Both runs fold the same completions in the same order, so the moments
  // agree bitwise too, and the quantiles while both reservoirs hold every
  // sample.
  EXPECT_EQ(str.mean_flow, mat.mean_flow);
  EXPECT_EQ(str.flow.stddev, mat.flow.stddev);
  EXPECT_EQ(str.flow.p50, mat.flow.p50);
  EXPECT_EQ(str.flow.p90, mat.flow.p90);
  EXPECT_EQ(str.flow.p99, mat.flow.p99);
  // The engines must have taken the same decisions: every counter agrees.
  EXPECT_EQ(str.stats.steal_attempts, mat.stats.steal_attempts);
  EXPECT_EQ(str.stats.successful_steals, mat.stats.successful_steals);
  EXPECT_EQ(str.stats.admissions, mat.stats.admissions);
  EXPECT_EQ(str.stats.work_steps, mat.stats.work_steps);
  EXPECT_EQ(str.stats.idle_steps, mat.stats.idle_steps);
  EXPECT_EQ(str.stats.macro_jumps, mat.stats.macro_jumps);
  EXPECT_EQ(str.stats.decision_points, mat.stats.decision_points);
  EXPECT_EQ(str.stats.fast_decisions, mat.stats.fast_decisions);
  EXPECT_EQ(str.stats.arena_slots, mat.stats.arena_slots);
  EXPECT_EQ(str.stats.peak_live_jobs, mat.stats.peak_live_jobs);
  EXPECT_EQ(str.stats.idle_processor_time, mat.stats.idle_processor_time);
}

class StreamRunCrossCheck
    : public ::testing::TestWithParam<const char*> {};

// One scheduler, two workloads (bing discrete, lognormal), streamed via
// GeneratedJobSource vs materialized via generate_instance.
TEST_P(StreamRunCrossCheck, StreamedMatchesMaterialized) {
  const core::SchedulerSpec spec = core::parse_scheduler(GetParam());
  const core::MachineConfig machine = machine16();

  const workload::DiscreteWorkDistribution bing =
      workload::bing_distribution();
  const workload::LognormalWorkDistribution lognormal =
      workload::default_lognormal_distribution();
  const workload::WorkDistribution* dists[] = {&bing, &lognormal};

  for (const workload::WorkDistribution* dist : dists) {
    SCOPED_TRACE(dist->name());
    workload::GeneratorConfig cfg = base_config(400);
    const core::Instance inst = workload::generate_instance(*dist, cfg);
    const core::StreamRunResult mat = run_scheduler(inst, spec, machine);

    workload::GeneratedJobSource source(*dist, cfg);
    const core::StreamRunResult str =
        run_scheduler_streamed(source, spec, machine);
    expect_identical(mat, str);
    // 400 jobs fit the default reservoir: quantiles are exact and must
    // reproduce summarize() over the materialized flows bitwise.
    ASSERT_TRUE(str.flow_quantiles_exact);
    const metrics::Summary direct = metrics::summarize(mat.job_flow);
    EXPECT_EQ(str.flow.p50, direct.p50);
    EXPECT_EQ(str.flow.p90, direct.p90);
    EXPECT_EQ(str.flow.p99, direct.p99);
    EXPECT_EQ(str.flow.min, direct.min);
    EXPECT_EQ(str.flow.max, direct.max);
  }
}

INSTANTIATE_TEST_SUITE_P(Schedulers, StreamRunCrossCheck,
                         ::testing::Values("fifo", "fifo-exact", "bwf",
                                           "lifo", "sjf", "round-robin",
                                           "equi", "admit-first",
                                           "steal-16-first", "opt"),
                         [](const auto& info) {
                           std::string n = info.param;
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });

// The event engine's streamed fast path vs streamed exact path: same
// decisions, same results (the engine-internal analogue of the
// event_fast_path_test cross-check, via the streamed entry point).
TEST(StreamRunTest, StreamedFastMatchesStreamedExact) {
  const auto dist = workload::bing_distribution();
  const workload::GeneratorConfig cfg = base_config(300);
  workload::GeneratedJobSource fast_source(dist, cfg);
  workload::GeneratedJobSource exact_source(dist, cfg);
  const auto fast = run_scheduler_streamed(
      fast_source, core::parse_scheduler("fifo"), machine16());
  const auto exact = run_scheduler_streamed(
      exact_source, core::parse_scheduler("fifo-exact"), machine16());
  EXPECT_EQ(fast.max_flow, exact.max_flow);
  EXPECT_EQ(fast.max_weighted_flow, exact.max_weighted_flow);
  EXPECT_EQ(fast.argmax_flow, exact.argmax_flow);
  EXPECT_EQ(fast.makespan, exact.makespan);
  EXPECT_EQ(fast.flow.p99, exact.flow.p99);
  EXPECT_GT(fast.stats.fast_decisions, 0u);
  EXPECT_EQ(exact.stats.fast_decisions, 0u);
}

// Coalesced traces are part of the bit-identity contract: a streamed run
// with tracing enabled emits exactly the intervals the materialized run
// does.
TEST(StreamRunTest, StreamedTraceMatchesMaterialized) {
  class ArrivalPolicy final : public sim::OrderPolicy {
   public:
    std::string name() const override { return "fifo"; }
    void order(const sim::PolicyContext& ctx,
               std::vector<core::JobId>& active) override {
      std::stable_sort(active.begin(), active.end(),
                       [&ctx](core::JobId a, core::JobId b) {
                         return ctx.arrival(a) < ctx.arrival(b);
                       });
    }
    bool has_static_order() const override { return true; }
    double static_key(const sim::PolicyContext& ctx,
                      core::JobId job) override {
      return ctx.arrival(job);
    }
  };

  const auto dist = workload::finance_distribution();
  const workload::GeneratorConfig cfg = base_config(120);
  const core::Instance inst = workload::generate_instance(dist, cfg);

  sim::Trace mat_trace;
  ArrivalPolicy mat_policy;
  sim::EventEngineOptions mat_opt;
  mat_opt.machine = machine16();
  mat_opt.trace = &mat_trace;
  core::InstanceSource mat_source(inst);
  const auto mat = sim::run_event_engine(mat_source, mat_policy, mat_opt);

  sim::Trace str_trace;
  ArrivalPolicy str_policy;
  sim::EventEngineOptions str_opt;
  str_opt.machine = machine16();
  str_opt.trace = &str_trace;
  workload::GeneratedJobSource source(dist, cfg);
  const auto str = sim::run_event_engine(source, str_policy, str_opt);
  EXPECT_EQ(str.max_flow, mat.max_flow);

  const auto& a = mat_trace.intervals();
  const auto& b = str_trace.intervals();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].job, b[i].job) << "interval " << i;
    EXPECT_EQ(a[i].node, b[i].node) << "interval " << i;
    EXPECT_EQ(a[i].proc, b[i].proc) << "interval " << i;
    EXPECT_EQ(a[i].start, b[i].start) << "interval " << i;
    EXPECT_EQ(a[i].end, b[i].end) << "interval " << i;
  }
}

// Batched arrival admission: with a burst-heavy feed (tens of arrivals
// landing on the same engine step) the streamed step engine drains every
// due arrival in one batch — one budget recomputation per batch, one
// JobSource pull loop — before the quantum decision.  The result must stay
// bit-identical to the materialized run, which admits the same set.
TEST(StreamRunTest, BurstArrivalsBatchedAdmissionMatchesMaterialized) {
  const auto dist = workload::bing_distribution();
  workload::GeneratorConfig cfg = base_config(600);
  cfg.qps = 50000.0;  // deep same-step arrival batches

  for (const char* name : {"steal-16-first", "admit-first", "fifo", "bwf"}) {
    SCOPED_TRACE(name);
    const core::Instance inst = workload::generate_instance(dist, cfg);
    const core::StreamRunResult mat =
        run_scheduler(inst, core::parse_scheduler(name), machine16());
    workload::GeneratedJobSource source(dist, cfg);
    const core::StreamRunResult str = run_scheduler_streamed(
        source, core::parse_scheduler(name), machine16());
    expect_identical(mat, str);
  }
}

// The memory claim itself: under a stable load, the arena recycles slots, so
// slots_allocated is a small multiple of peak_live_jobs and far below the
// job count — this is what makes 10^6-job runs O(live jobs) resident.
TEST(StreamRunTest, ArenaRecyclingBoundsResidentState) {
  const auto dist = workload::bing_distribution();
  workload::GeneratorConfig cfg = base_config(5000);
  cfg.qps = 1000.0;  // utilization ~0.69 on 16 procs: stable, bounded queue

  for (const char* name : {"fifo", "steal-16-first"}) {
    SCOPED_TRACE(name);
    workload::GeneratedJobSource source(dist, cfg);
    const auto res = run_scheduler_streamed(
        source, core::parse_scheduler(name), machine16());
    EXPECT_EQ(res.jobs, cfg.num_jobs);
    EXPECT_EQ(res.stats.arena_slots, res.stats.peak_live_jobs);
    // "<<": at least 20x fewer resident slots than jobs completed.
    EXPECT_LT(res.stats.arena_slots * 20, cfg.num_jobs);
  }
}

// Zero-job streams are legal and yield the documented empty result.
TEST(StreamRunTest, EmptySourceYieldsEmptyResult) {
  class EmptySource final : public core::JobSource {
   public:
    std::size_t size() const override { return 0; }

   protected:
    bool produce(core::StreamedJob&) override { return false; }
  };

  for (const char* name : {"fifo", "admit-first"}) {
    SCOPED_TRACE(name);
    EmptySource source;
    const auto res = run_scheduler_streamed(
        source, core::parse_scheduler(name), machine16());
    EXPECT_EQ(res.jobs, 0u);
    EXPECT_EQ(res.max_flow, 0.0);
    EXPECT_EQ(res.makespan, 0.0);
    EXPECT_EQ(res.flow.count, 0u);
    EXPECT_EQ(res.stats.arena_slots, 0u);
  }
}

// A caller-provided stats sink sees every completion (and the run result is
// built from that same sink).
TEST(StreamRunTest, CallerProvidedStatsSink) {
  const auto dist = workload::bing_distribution();
  const workload::GeneratorConfig cfg = base_config(200);
  workload::GeneratedJobSource source(dist, cfg);
  metrics::StreamingFlowStats stats;
  const auto res = run_scheduler_streamed(
      source, core::parse_scheduler("bwf"), machine16(), &stats);
  EXPECT_EQ(stats.count(), cfg.num_jobs);
  EXPECT_EQ(res.max_flow, stats.max_flow());
  EXPECT_EQ(res.max_weighted_flow, stats.max_weighted_flow());
  EXPECT_EQ(res.argmax_flow, stats.argmax_flow());
}

// The OPT lower bound streams like every other scheduler, and its run is
// the streamed opt_sim bound itself: same relaxation, same formulas, so the
// max flow agrees bitwise.
TEST(StreamRunTest, OptBoundStreamsTheOptSimBound) {
  const auto dist = workload::bing_distribution();
  const workload::GeneratorConfig cfg = base_config(300);
  workload::GeneratedJobSource run_source(dist, cfg);
  workload::GeneratedJobSource bound_source(dist, cfg);
  const core::StreamRunResult res = run_scheduler_streamed(
      run_source, core::parse_scheduler("opt"), machine16());
  const core::LowerBoundSet bounds =
      core::stream_lower_bounds(bound_source, machine16().processors);
  EXPECT_EQ(res.scheduler_name, "opt-lower-bound");
  EXPECT_EQ(res.jobs, cfg.num_jobs);
  EXPECT_EQ(res.max_flow, bounds.opt_sim);
}

}  // namespace
}  // namespace pjsched
