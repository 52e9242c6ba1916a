// Tests for summary statistics (src/metrics/stats.h).
#include "src/metrics/stats.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/sim/rng.h"

namespace pjsched::metrics {
namespace {

TEST(SummaryTest, EmptyInput) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
}

TEST(SummaryTest, KnownValues) {
  const Summary s = summarize({4.0, 1.0, 3.0, 2.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.p50, 2.5);
  // Population stddev of {1,2,3,4} = sqrt(1.25).
  EXPECT_NEAR(s.stddev, 1.1180339887, 1e-9);
}

TEST(SummaryTest, SingleValue) {
  const Summary s = summarize({7.0});
  EXPECT_DOUBLE_EQ(s.min, 7.0);
  EXPECT_DOUBLE_EQ(s.p99, 7.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(QuantileTest, Interpolates) {
  const std::vector<double> v{10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.5), 30.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.25), 20.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.125), 15.0);
}

TEST(QuantileTest, BadInputsRejected) {
  EXPECT_THROW(quantile_sorted({}, 0.5), std::invalid_argument);
  EXPECT_THROW(quantile_sorted({1.0}, 1.5), std::invalid_argument);
  EXPECT_THROW(quantile_sorted({1.0}, -0.1), std::invalid_argument);
  std::vector<double> empty;
  EXPECT_THROW(quantile_select(empty, 0.5), std::invalid_argument);
  std::vector<double> one{1.0};
  EXPECT_THROW(quantile_select(one, 1.5), std::invalid_argument);
  EXPECT_THROW(quantile_select(one, -0.1), std::invalid_argument);
}

// The documented edge-case contract: empty input always throws (it is a
// caller bug, unlike summarize's "no samples yet" all-zero Summary), and a
// one-element input returns that element for every q — including the
// endpoints, where interpolation would otherwise index a second order
// statistic that does not exist.
TEST(QuantileTest, OneSampleContract) {
  const std::vector<double> one_sorted{42.5};
  for (double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(quantile_sorted(one_sorted, q), 42.5) << "q=" << q;
    std::vector<double> scratch{42.5};
    EXPECT_DOUBLE_EQ(quantile_select(scratch, q), 42.5) << "q=" << q;
  }
  // Bad q is rejected even when the answer would not depend on q.
  EXPECT_THROW(quantile_sorted(one_sorted, 1.0000001), std::invalid_argument);
}

// summarize's side of the contract: empty returns the all-zero Summary
// (count distinguishes "no samples" from a genuine all-zero sample set).
TEST(SummaryTest, EmptyInputIsAllZeroNotThrow) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.p50, 0.0);
  EXPECT_DOUBLE_EQ(s.p90, 0.0);
  EXPECT_DOUBLE_EQ(s.p99, 0.0);
}

// quantile_select must return the *same float* as sort + quantile_sorted:
// the selection only swaps which algorithm finds the two order statistics,
// not the interpolation arithmetic.
TEST(QuantileTest, SelectMatchesSortedBitwise) {
  sim::Rng rng(99);
  for (std::size_t n : {1u, 2u, 3u, 7u, 100u, 1000u}) {
    std::vector<double> samples;
    samples.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      samples.push_back(rng.uniform_double() * 1000.0 -
                        (i % 5 == 0 ? 200.0 : 0.0));
    // Duplicates exercise tied order statistics.
    if (n > 4) samples[3] = samples[1];
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    for (double q : {0.0, 0.125, 0.25, 0.5, 0.9, 0.99, 1.0}) {
      std::vector<double> scratch = samples;
      EXPECT_EQ(quantile_select(scratch, q), quantile_sorted(sorted, q))
          << "n=" << n << " q=" << q;
    }
  }
}

// summarize's quantiles are selections over a shared scratch; they must not
// depend on the sample order or on each other's partial reorderings.
TEST(SummaryTest, OrderInvariantQuantiles) {
  sim::Rng rng(7);
  std::vector<double> samples;
  for (std::size_t i = 0; i < 257; ++i)
    samples.push_back(rng.uniform_double() * 50.0);
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const Summary s = summarize(samples);
  EXPECT_EQ(s.p50, quantile_sorted(sorted, 0.50));
  EXPECT_EQ(s.p90, quantile_sorted(sorted, 0.90));
  EXPECT_EQ(s.p99, quantile_sorted(sorted, 0.99));
  EXPECT_EQ(s.min, sorted.front());
  EXPECT_EQ(s.max, sorted.back());
}

TEST(TightestSloTest, MatchesQuantile) {
  const std::vector<double> v{50.0, 10.0, 40.0, 20.0, 30.0};
  std::vector<double> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(tightest_slo(v, 0.0), 50.0);
  EXPECT_EQ(tightest_slo(v, 0.25), quantile_sorted(sorted, 0.75));
  EXPECT_EQ(tightest_slo(v, 1.0), 10.0);
}

TEST(HistogramTest, BinningAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);    // bin 0
  h.add(9.9);    // bin 4
  h.add(-3.0);   // clamps to bin 0
  h.add(42.0);   // clamps to bin 4
  h.add(5.0);    // bin 2
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.counts[0], 2u);
  EXPECT_EQ(h.counts[2], 1u);
  EXPECT_EQ(h.counts[4], 2u);
  EXPECT_DOUBLE_EQ(h.fraction(0), 0.4);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bin_center(4), 9.0);
}

TEST(HistogramTest, BadParamsRejected) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace pjsched::metrics
