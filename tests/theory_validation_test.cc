// Empirical validation of the paper's key lemmas on simulated executions.
// These tests instrument real engine runs and check the quantities the
// proofs reason about — not just the end-to-end theorems.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/core/bounds.h"
#include "src/dag/builders.h"
#include "src/metrics/gantt.h"
#include "src/sched/fifo.h"
#include "src/sched/work_stealing.h"
#include "src/sim/trace.h"
#include "tests/test_util.h"

namespace pjsched {
namespace {

using testutil::make_instance;

// --- Proposition 2.1-flavoured check -------------------------------------
// While a scheduler runs all ready nodes of a job (here: FIFO on a single
// job with enough processors), the remaining critical path shrinks at rate
// s — i.e. the job completes in exactly P/s time.
TEST(TheoryValidation, Proposition21_SpanRateWhenFullyServed) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    sim::Rng rng(seed + 500);
    dag::RandomLayeredOptions opt;
    opt.layers = 1 + static_cast<std::size_t>(rng.uniform_int(4));
    opt.max_width = 4;
    opt.max_work = 6;
    auto inst = make_instance({{0.0, dag::random_layered(rng, opt)}});
    const double speed = 1.0 + 0.5 * static_cast<double>(seed % 3);
    sched::FifoScheduler fifo;
    // m large enough that every ready node always has a processor.
    const auto res = fifo.run(inst, {64, speed});
    const double span = static_cast<double>(inst.jobs[0].graph.critical_path());
    EXPECT_NEAR(res.completion[0], span / speed, 1e-6) << "seed " << seed;
  }
}

// --- Lemma 3.2-flavoured check --------------------------------------------
// During [r_i, c_i] of FIFO's max-flow job, whenever not all m processors
// are busy FIFO is serving all ready nodes of that job; the aggregate
// not-all-busy time is therefore at most the job's critical path / speed.
TEST(TheoryValidation, Lemma32_NotAllBusyTimeBoundedBySpan) {
  auto inst = testutil::random_instance(321, 30, 40.0);
  const unsigned m = 3;
  sim::Trace trace;
  sched::FifoScheduler fifo;
  const auto res = fifo.run(inst, {m, 1.0}, &trace);

  const core::JobId hot = res.argmax_flow;
  const double r = inst.jobs[hot].arrival;
  const double c = res.completion[hot];

  // Exact sweep over the trace: time within [r, c] during which fewer than
  // m processors were busy.
  std::vector<std::pair<double, int>> events;
  for (const auto& iv : trace.intervals()) {
    const double lo = std::max(iv.start, r);
    const double hi = std::min(iv.end, c);
    if (hi <= lo) continue;
    events.emplace_back(lo, +1);
    events.emplace_back(hi, -1);
  }
  std::sort(events.begin(), events.end());
  double not_all_busy = 0.0;
  double prev = r;
  int count = 0;
  for (const auto& [t, delta] : events) {
    if (t > prev && count < static_cast<int>(m)) not_all_busy += t - prev;
    count += delta;
    prev = std::max(prev, t);
  }
  if (c > prev) not_all_busy += c - prev;

  const double span = static_cast<double>(inst.jobs[hot].graph.critical_path());
  EXPECT_LE(not_all_busy, span + 1e-6);
}

// --- Lemma 4.4/4.5-flavoured check ----------------------------------------
// For a single job executed by work stealing, the number of steal attempts
// during its execution is O(m * P) — the Blumofe–Leiserson bound the
// paper's Lemma 4.4 imports (expected 32 m P; we allow the 64 m P + slack
// high-probability form).
TEST(TheoryValidation, Lemma44_StealAttemptsLinearInSpanTimesWorkers) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    auto inst = make_instance({{0.0, dag::divide_and_conquer(6, 3)}});
    const unsigned m = 8;
    sched::WorkStealingScheduler ws(0, seed + 1);
    const auto res = ws.run(inst, {m, 1.0});
    const double p = static_cast<double>(inst.jobs[0].graph.critical_path());
    EXPECT_LE(static_cast<double>(res.stats.steal_attempts),
              64.0 * m * p + 16.0 * std::log(1000.0))
        << "seed " << seed;
  }
}

// --- Lemma 4.6-flavoured check --------------------------------------------
// Under steal-k-first, between a job's arrival and its admission each
// worker does at most k consecutive failed steals before admitting: an
// isolated job is admitted within k steps of its arrival.
TEST(TheoryValidation, Lemma46_AdmissionDelayAtMostK) {
  for (unsigned k : {0u, 3u, 7u}) {
    auto inst = make_instance({{5.0, dag::single_node(10)}});
    sched::WorkStealingScheduler ws(k, 2);
    const auto res = ws.run(inst, {4, 1.0});
    // Arrival at step 5; at most k failed steals before some worker
    // admits; then 10 steps of work.
    EXPECT_LE(res.completion[0], 5.0 + k + 10.0 + 1e-9) << "k " << k;
    EXPECT_GE(res.completion[0], 15.0 - 1e-9);
  }
}

// --- Theorem 3.1 end-to-end shape ------------------------------------------
// FIFO at speed (1+eps) against the OPT lower bound: the ratio must not
// exceed 3/eps on instances where the bound is reasonably tight (fully
// parallelizable wide jobs under overload — the theorem's own regime).
TEST(TheoryValidation, Theorem31_RatioWithinThreeOverEps) {
  core::Instance inst;
  for (int i = 0; i < 150; ++i) {
    core::JobSpec job;
    job.arrival = static_cast<core::Time>(i) * 6.0;
    job.graph = dag::parallel_for_dag(16, 4);  // W = 66, P = 6
    inst.jobs.push_back(std::move(job));
  }
  const unsigned m = 8;  // load = 66 / (6*8) ~ 1.375: overload at speed 1
  sched::FifoScheduler fifo;
  for (double eps : {0.5, 1.0, 2.0}) {
    const auto res = fifo.run(inst, {m, 1.0 + eps});
    const double lb = core::lower_bounds(inst, m).combined;
    EXPECT_LE(res.max_flow / lb, 3.0 / eps + 1e-9) << "eps " << eps;
  }
}

// --- Lemma 5.1 end-to-end shape ---------------------------------------------
// On the adversarial star instance, FIFO achieves OPT's flow of 2 while
// work stealing's max flow strictly exceeds it (some job serializes).
TEST(TheoryValidation, Lemma51_WorkStealingStrictlyWorseOnStars) {
  core::Instance inst;
  const unsigned m = 40;
  for (int j = 0; j < 300; ++j) {
    core::JobSpec job;
    job.arrival = 2.0 * m * static_cast<double>(j);
    job.graph = dag::star(4);
    inst.jobs.push_back(std::move(job));
  }
  sched::FifoScheduler fifo;
  sched::WorkStealingScheduler ws(0, 77);
  EXPECT_DOUBLE_EQ(fifo.run(inst, {m, 1.0}).max_flow, 2.0);
  EXPECT_GT(ws.run(inst, {m, 1.0}).max_flow, 2.0);
}

}  // namespace
}  // namespace pjsched
