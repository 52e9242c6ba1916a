// Cross-checks the event engine's incremental fast path (virtual work
// clock, completion heap, incremental active set — the default) against the
// per-slice reference mode (EventEngineOptions::exact): completions, flows,
// stats counters, idle-time accounting, and coalesced traces must agree bit
// for bit across FIFO, BWF, the arrival-ordered baselines, equipartition's
// processor caps, degradation timelines, and zero-work / simultaneous-
// completion edge cases.  Dynamic policies (SJF, round-robin) must fall
// back to the reference loop in both modes.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/core/run.h"
#include "src/dag/builders.h"
#include "src/sched/event_schedulers.h"
#include "src/sim/trace.h"
#include "tests/test_util.h"

namespace pjsched {
namespace {

using testutil::make_instance;
using testutil::make_weighted_instance;
using testutil::random_instance;

// Runs the scheduler in both engine modes and asserts bitwise-identical
// results.  Returns the fast run so callers can additionally assert the
// fast path actually engaged (stats.fast_decisions > 0) where expected.
core::StreamRunResult expect_modes_identical(sched::Scheduler& fast_s,
                                             sched::Scheduler& exact_s,
                                             const core::Instance& inst,
                                             const core::MachineConfig& mc) {
  sim::Trace fast_trace, exact_trace;
  const auto fast = fast_s.run(inst, mc, &fast_trace);
  const auto exact = exact_s.run(inst, mc, &exact_trace);

  EXPECT_EQ(fast.completion, exact.completion);
  EXPECT_EQ(fast.job_flow, exact.job_flow);
  EXPECT_EQ(fast.max_flow, exact.max_flow);
  EXPECT_EQ(fast.max_weighted_flow, exact.max_weighted_flow);
  EXPECT_EQ(fast.mean_flow, exact.mean_flow);
  EXPECT_EQ(fast.makespan, exact.makespan);
  EXPECT_EQ(fast.argmax_flow, exact.argmax_flow);
  EXPECT_EQ(fast.stats.decision_points, exact.stats.decision_points);
  EXPECT_EQ(fast.stats.idle_processor_time, exact.stats.idle_processor_time);
  EXPECT_EQ(exact.stats.fast_decisions, 0u);

  EXPECT_EQ(fast_trace.intervals().size(), exact_trace.intervals().size());
  const std::size_t n_iv = std::min(fast_trace.intervals().size(),
                                    exact_trace.intervals().size());
  for (std::size_t i = 0; i < n_iv; ++i) {
    const auto& a = fast_trace.intervals()[i];
    const auto& b = exact_trace.intervals()[i];
    EXPECT_EQ(a.job, b.job) << "interval " << i;
    EXPECT_EQ(a.node, b.node) << "interval " << i;
    EXPECT_EQ(a.proc, b.proc) << "interval " << i;
    EXPECT_EQ(a.start, b.start) << "interval " << i;
    EXPECT_EQ(a.end, b.end) << "interval " << i;
  }
  return fast;
}

template <typename S>
core::StreamRunResult check(const core::Instance& inst,
                            const core::MachineConfig& mc) {
  S fast_s(false);
  S exact_s(true);
  return expect_modes_identical(fast_s, exact_s, inst, mc);
}

TEST(EventFastPathTest, FifoRandomInstances) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const auto inst = random_instance(seed, 30, 60.0);
    for (unsigned m : {4u, 16u}) {
      const auto fast = check<sched::FifoScheduler>(inst, {m, 1.0});
      EXPECT_GT(fast.stats.fast_decisions, 0u) << "seed=" << seed;
      EXPECT_EQ(fast.stats.fast_decisions, fast.stats.decision_points);
    }
  }
}

TEST(EventFastPathTest, BwfWeightTiesAndDuplicates) {
  // Duplicate weights force the -weight key's tie-break through the arrival
  // base order, the subtle half of the static-order contract.
  std::vector<std::tuple<core::Time, double, dag::Dag>> specs;
  for (std::size_t i = 0; i < 12; ++i)
    specs.emplace_back(3.5 * static_cast<double>(i % 5),
                       static_cast<double>(1 + i % 3),
                       dag::parallel_for_dag(4, 50 + 17 * (i % 4)));
  const auto inst = make_weighted_instance(std::move(specs));
  const auto fast = check<sched::BwfScheduler>(inst, {3, 1.0});
  EXPECT_GT(fast.stats.fast_decisions, 0u);
}

TEST(EventFastPathTest, LifoRandomInstances) {
  const auto inst = random_instance(7, 25, 40.0);
  const auto fast = check<sched::LifoScheduler>(inst, {4, 1.0});
  EXPECT_GT(fast.stats.fast_decisions, 0u);
}

TEST(EventFastPathTest, EquiProcessorCaps) {
  // Equipartition exercises processor_cap and the cap-free leftover pass at
  // every decision point on both paths.
  for (std::uint64_t seed : {11ull, 12ull}) {
    const auto inst = random_instance(seed, 20, 30.0);
    const auto fast = check<sched::EquiScheduler>(inst, {8, 1.0});
    EXPECT_GT(fast.stats.fast_decisions, 0u);
  }
}

TEST(EventFastPathTest, DynamicPoliciesKeepReferenceLoop) {
  const auto inst = random_instance(21, 15, 30.0);
  const auto sjf = check<sched::SjfScheduler>(inst, {4, 1.0});
  EXPECT_EQ(sjf.stats.fast_decisions, 0u);
  const auto rr = check<sched::RoundRobinScheduler>(inst, {4, 1.0});
  EXPECT_EQ(rr.stats.fast_decisions, 0u);
}

TEST(EventFastPathTest, DegradationTimeline) {
  // Processor losses and speed changes mid-run: completion coordinates live
  // on the work axis, so speed changes must not disturb heap entries.
  const auto inst = random_instance(31, 25, 80.0);
  core::MachineConfig mc{8, 1.0, {{20.0, 3, 0.5}, {55.0, 8, 2.0}}};
  const auto fifo = check<sched::FifoScheduler>(inst, mc);
  EXPECT_GT(fifo.stats.fast_decisions, 0u);
  const auto equi = check<sched::EquiScheduler>(inst, mc);
  EXPECT_GT(equi.stats.fast_decisions, 0u);
}

TEST(EventFastPathTest, SpeedAugmentedFractionalArrivals) {
  // Non-dyadic arrivals and s > 1 stress the shared floating-point
  // formulas; any divergence between the paths shows up bitwise.
  auto inst = make_instance({
      {0.0, dag::parallel_for_dag(6, 37)},
      {1.3, dag::serial_chain(5, 11)},
      {2.7, dag::divide_and_conquer(3, 9)},
      {2.7, dag::star(12)},
      {9.9, dag::parallel_for_dag(3, 53)},
  });
  const auto fast = check<sched::FifoScheduler>(inst, {4, 1.25});
  EXPECT_GT(fast.stats.fast_decisions, 0u);
}

TEST(EventFastPathTest, SimultaneousCompletions) {
  // Identical jobs arriving together: many equal completion coordinates in
  // the heap at once; the fast path must process them in processor-slot
  // order exactly like the reference scan.
  std::vector<std::pair<core::Time, dag::Dag>> specs;
  for (int i = 0; i < 6; ++i)
    specs.emplace_back(0.0, dag::parallel_for_dag(4, 100));
  const auto inst = make_instance(std::move(specs));
  const auto fast = check<sched::FifoScheduler>(inst, {8, 1.0});
  EXPECT_GT(fast.stats.fast_decisions, 0u);
}

TEST(EventFastPathTest, ZeroDtSlices) {
  // Arrivals placed exactly at completion instants (unit-work nodes at
  // integer times) force zero-dt decision slices; neither path may emit
  // zero-length trace intervals or lose span contiguity across them.
  auto inst = make_instance({
      {0.0, dag::single_node(4)},
      {4.0, dag::serial_chain(2, 1)},   // arrives as job 0 completes
      {5.0, dag::single_node(1)},       // arrives as chain node 1 completes
      {6.0, dag::parallel_for_dag(2, 1)},
  });
  check<sched::FifoScheduler>(inst, {2, 1.0});
  check<sched::EquiScheduler>(inst, {2, 1.0});
}

TEST(EventFastPathTest, IdleGaps) {
  // Large arrival gaps force idle jumps between bursts; idle-processor-time
  // accounting must agree bitwise.
  auto inst = make_instance({
      {0.0, dag::parallel_for_dag(4, 300)},
      {10000.0, dag::serial_chain(3, 200)},
      {20000.0, dag::parallel_for_dag(8, 100)},
  });
  const auto fast = check<sched::FifoScheduler>(inst, {4, 1.0});
  EXPECT_GT(fast.stats.fast_decisions, 0u);
}

TEST(EventFastPathTest, SingleProcessorHighContention) {
  // m = 1 maximizes preemption churn: only the top-priority job runs, so
  // every arrival preempts and every preemption materializes remaining
  // work on the heap path.
  const auto inst = random_instance(41, 20, 15.0);
  check<sched::FifoScheduler>(inst, {1, 1.0});
  check<sched::LifoScheduler>(inst, {1, 1.0});
}

TEST(EventFastPathTest, ExactSuffixParsesAndMatches) {
  const auto inst = random_instance(51, 12, 20.0);
  const core::MachineConfig mc{4, 1.0};
  for (const char* base : {"fifo", "bwf", "lifo", "equi"}) {
    const auto spec = core::parse_scheduler(base);
    auto exact_spec = core::parse_scheduler(std::string(base) + "-exact");
    EXPECT_TRUE(exact_spec.exact_engine);
    EXPECT_EQ(exact_spec.kind, spec.kind);
    const auto fast = core::run_scheduler(inst, spec, mc);
    const auto exact = core::run_scheduler(inst, exact_spec, mc);
    EXPECT_EQ(fast.completion, exact.completion) << base;
    EXPECT_EQ(fast.max_flow, exact.max_flow) << base;
    EXPECT_EQ(exact.stats.fast_decisions, 0u) << base;
  }
  EXPECT_THROW(core::parse_scheduler("steal-4-first-exact"),
               std::invalid_argument);
  EXPECT_THROW(core::parse_scheduler("opt-exact"), std::invalid_argument);
}

}  // namespace
}  // namespace pjsched
