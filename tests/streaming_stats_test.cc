// Tests for bounded-memory flow accounting (src/metrics/streaming_stats.h):
// exact extremes vs the materialized path, bitwise-equal quantiles at full
// retention, the documented empty contract, and reservoir determinism.
#include "src/metrics/streaming_stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "src/core/types.h"
#include "src/metrics/stats.h"
#include "src/sim/rng.h"

namespace pjsched::metrics {
namespace {

struct Completion {
  core::JobId id;
  double arrival;
  double weight;
  double completion;
};

// A synthetic completion stream with exact ties in weighted flow (ids 3 and
// 7 both attain 60.0) to exercise the smallest-id tie-break.
std::vector<Completion> tied_stream() {
  return {
      {0, 0.0, 1.0, 10.0},   // flow 10
      {3, 5.0, 2.0, 35.0},   // flow 30, weighted 60  <- argmax (ties with 7)
      {1, 2.0, 1.0, 42.0},   // flow 40
      {7, 10.0, 1.5, 50.0},  // flow 40, weighted 60
      {2, 4.0, 1.0, 9.0},    // flow 5
  };
}

// The oracle: an id-order scan over the completions, flows in id order,
// first strict maximum of weighted flow wins.
struct Reference {
  std::vector<double> flows;  // id order
  double max_flow = 0.0;
  double max_weighted = 0.0;
  core::JobId argmax = 0;
  double makespan = 0.0;
};

Reference reference_of(std::vector<Completion> cs) {
  std::sort(cs.begin(), cs.end(), [](const Completion& a, const Completion& b) {
    return a.id < b.id;
  });
  Reference r;
  bool first = true;
  for (const Completion& c : cs) {
    const double flow = c.completion - c.arrival;
    r.flows.push_back(flow);
    r.max_flow = std::max(r.max_flow, flow);
    r.makespan = std::max(r.makespan, c.completion);
    const double w = c.weight * flow;
    if (first || w > r.max_weighted) {
      r.max_weighted = w;
      r.argmax = c.id;
      first = false;
    }
  }
  return r;
}

TEST(StreamingFlowStatsTest, ExtremesMatchIdOrderScan) {
  const auto cs = tied_stream();
  StreamingFlowStats stats;
  for (const Completion& c : cs)
    stats.record(c.id, c.arrival, c.weight, c.completion);
  const Reference ref = reference_of(cs);

  EXPECT_EQ(stats.count(), cs.size());
  EXPECT_EQ(stats.max_flow(), ref.max_flow);
  EXPECT_EQ(stats.max_weighted_flow(), ref.max_weighted);
  EXPECT_EQ(stats.argmax_flow(), ref.argmax);  // smallest id on the 60.0 tie
  EXPECT_EQ(stats.argmax_flow(), 3u);
  EXPECT_EQ(stats.makespan(), ref.makespan);
  EXPECT_EQ(stats.min_flow(), 5.0);
}

// While count <= reservoir capacity the reservoir holds every sample, and
// summary() must reproduce metrics::summarize bit for bit — same quantile
// arithmetic over the same sample multiset.
TEST(StreamingFlowStatsTest, FullRetentionSummaryIsBitwiseSummarize) {
  sim::Rng rng(123);
  StreamingFlowStats::Options opt;
  opt.reservoir = 1000;
  StreamingFlowStats stats(opt);
  std::vector<double> flows;
  double t = 0.0;
  for (core::JobId id = 0; id < 700; ++id) {
    const double arrival = t;
    const double completion = arrival + rng.uniform_double() * 500.0;
    t += rng.uniform_double() * 3.0;
    stats.record(id, arrival, 1.0, completion);
    // The same subtraction the sink performs — flows must match bitwise.
    flows.push_back(completion - arrival);
  }
  ASSERT_TRUE(stats.quantiles_exact());

  const Summary direct = summarize(flows);
  const Summary streamed = stats.summary();
  EXPECT_EQ(streamed.count, direct.count);
  EXPECT_EQ(streamed.min, direct.min);
  EXPECT_EQ(streamed.max, direct.max);
  EXPECT_EQ(streamed.p50, direct.p50);
  EXPECT_EQ(streamed.p90, direct.p90);
  EXPECT_EQ(streamed.p99, direct.p99);
  // Mean and stddev use a different recurrence (Welford) — exact value, but
  // only up to floating-point summation order.
  EXPECT_NEAR(streamed.mean, direct.mean, 1e-9 * (1.0 + std::abs(direct.mean)));
  EXPECT_NEAR(streamed.stddev, direct.stddev,
              1e-9 * (1.0 + std::abs(direct.stddev)));
}

TEST(StreamingFlowStatsTest, BeyondCapacityQuantilesAreEstimates) {
  StreamingFlowStats::Options opt;
  opt.reservoir = 64;
  StreamingFlowStats stats(opt);
  for (core::JobId id = 0; id < 10000; ++id) {
    const double arrival = static_cast<double>(id);
    // Flows uniform on [0, 1000): quantiles of the population are known.
    const double flow = static_cast<double>((id * 37) % 1000);
    stats.record(id, arrival, 1.0, arrival + flow);
  }
  EXPECT_FALSE(stats.quantiles_exact());
  EXPECT_EQ(stats.reservoir().size(), 64u);
  // Extremes stay exact regardless of the reservoir.
  EXPECT_EQ(stats.count(), 10000u);
  EXPECT_EQ(stats.max_flow(), 999.0);
  const Summary s = stats.summary();
  EXPECT_EQ(s.max, 999.0);
  // The subsample is uniform; its median should land well inside the bulk.
  EXPECT_GT(s.p50, 200.0);
  EXPECT_LT(s.p50, 800.0);
}

TEST(StreamingFlowStatsTest, EmptyContractAllZero) {
  const StreamingFlowStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.max_flow(), 0.0);
  EXPECT_EQ(stats.min_flow(), 0.0);
  EXPECT_EQ(stats.mean_flow(), 0.0);
  EXPECT_EQ(stats.argmax_flow(), 0u);
  const Summary s = stats.summary();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.p99, 0.0);
}

TEST(StreamingFlowStatsTest, RejectsCompletionBeforeArrival) {
  StreamingFlowStats stats;
  EXPECT_THROW(stats.record(0, 10.0, 1.0, 9.0), std::logic_error);
  EXPECT_THROW(StreamingFlowStats(StreamingFlowStats::Options{0, 1}),
               std::invalid_argument);
}

// Same stream, same options => identical state, including the reservoir
// after evictions (the replacement draws are seeded).
TEST(StreamingFlowStatsTest, DeterministicAcrossRuns) {
  auto run = [] {
    StreamingFlowStats::Options opt;
    opt.reservoir = 32;
    StreamingFlowStats stats(opt);
    for (core::JobId id = 0; id < 5000; ++id) {
      const double arrival = 0.25 * static_cast<double>(id);
      stats.record(id, arrival, 1.0 + (id % 3),
                   arrival + static_cast<double>((id * 131) % 997));
    }
    return stats;
  };
  const StreamingFlowStats a = run();
  const StreamingFlowStats b = run();
  EXPECT_EQ(a.reservoir(), b.reservoir());
  const Summary sa = a.summary();
  const Summary sb = b.summary();
  EXPECT_EQ(sa.p50, sb.p50);
  EXPECT_EQ(sa.p90, sb.p90);
  EXPECT_EQ(sa.p99, sb.p99);
  EXPECT_EQ(a.max_weighted_flow(), b.max_weighted_flow());
  EXPECT_EQ(a.argmax_flow(), b.argmax_flow());
}

}  // namespace
}  // namespace pjsched::metrics
