// Summary statistics over flow times and other samples.
#pragma once

#include <cstddef>
#include <vector>

namespace pjsched::metrics {

/// Order statistics and moments of a sample set.
struct Summary {
  std::size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;  ///< population standard deviation
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// Computes a Summary; does not modify `samples`.
///
/// Edge-case contract (relied on by StreamingFlowStats::summary, which must
/// reproduce these results bitwise):
///   - empty input returns the all-zero Summary (count == 0), it does NOT
///     throw — "no samples" is an ordinary outcome of a zero-job run;
///   - a single sample yields min == max == mean == p50 == p90 == p99 ==
///     that sample and stddev == 0.
Summary summarize(const std::vector<double>& samples);

/// The q-th quantile (0 <= q <= 1) by linear interpolation between order
/// statistics; `sorted` must be ascending.
/// Throws std::invalid_argument if `sorted` is empty or q is outside
/// [0, 1]; a one-element input returns that element for every q.
double quantile_sorted(const std::vector<double>& sorted, double q);

/// Same quantile as quantile_sorted (bit-identical result) without sorting:
/// selects the two order statistics with std::nth_element, O(n) instead of
/// O(n log n).  Partially reorders `samples` (pass a scratch copy if the
/// original order matters).
/// Throws std::invalid_argument if `samples` is empty or q is outside
/// [0, 1]; a one-element input returns that element for every q.
double quantile_select(std::vector<double>& samples, double q);

/// The smallest threshold an operator could promise while missing at most
/// `miss_budget` of requests (i.e. the (1 - miss_budget)-quantile).
double tightest_slo(const std::vector<double>& samples, double miss_budget);

/// Histogram with fixed-width bins across [lo, hi); values outside clamp to
/// the boundary bins.
struct Histogram {
  double lo = 0.0;
  double hi = 1.0;
  std::vector<std::size_t> counts;

  Histogram(double lo, double hi, std::size_t bins);
  void add(double x);
  std::size_t total() const;
  /// Fraction of samples in bin b.
  double fraction(std::size_t b) const;
  double bin_center(std::size_t b) const;
};

}  // namespace pjsched::metrics
