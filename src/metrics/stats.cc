#include "src/metrics/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pjsched::metrics {

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument("quantile_sorted: empty");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile_sorted: bad q");
  if (sorted.size() == 1) return sorted[0];
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double quantile_select(std::vector<double>& samples, double q) {
  if (samples.empty()) throw std::invalid_argument("quantile_select: empty");
  if (q < 0.0 || q > 1.0)
    throw std::invalid_argument("quantile_select: bad q");
  if (samples.size() == 1) return samples[0];
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  const auto lo_it = samples.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(samples.begin(), lo_it, samples.end());
  const double a = *lo_it;
  // hi == lo only at q == 1; otherwise the hi-th order statistic is the
  // minimum of the tail nth_element partitioned above position lo.
  const double b =
      hi == lo ? a : *std::min_element(lo_it + 1, samples.end());
  return a * (1.0 - frac) + b * frac;
}

Summary summarize(const std::vector<double>& samples) {
  Summary s;
  if (samples.empty()) return s;
  s.count = samples.size();
  const auto [mn, mx] = std::minmax_element(samples.begin(), samples.end());
  s.min = *mn;
  s.max = *mx;
  double sum = 0.0;
  for (double x : samples) sum += x;
  s.mean = sum / static_cast<double>(s.count);
  double var = 0.0;
  for (double x : samples) var += (x - s.mean) * (x - s.mean);
  s.stddev = std::sqrt(var / static_cast<double>(s.count));
  // Selection, not a full sort: each quantile costs O(n), and the three
  // selections share one scratch vector (quantile_select's result does not
  // depend on the input order it permutes).
  std::vector<double> scratch = samples;
  s.p50 = quantile_select(scratch, 0.50);
  s.p90 = quantile_select(scratch, 0.90);
  s.p99 = quantile_select(scratch, 0.99);
  return s;
}

double tightest_slo(const std::vector<double>& samples, double miss_budget) {
  if (samples.empty()) throw std::invalid_argument("tightest_slo: empty");
  if (miss_budget < 0.0 || miss_budget > 1.0)
    throw std::invalid_argument("tightest_slo: bad miss budget");
  std::vector<double> scratch = samples;
  return quantile_select(scratch, 1.0 - miss_budget);
}

Histogram::Histogram(double lo_in, double hi_in, std::size_t bins)
    : lo(lo_in), hi(hi_in), counts(bins, 0) {
  if (!(lo < hi) || bins == 0)
    throw std::invalid_argument("Histogram: bad parameters");
}

void Histogram::add(double x) {
  const double width = (hi - lo) / static_cast<double>(counts.size());
  auto b = static_cast<long long>(std::floor((x - lo) / width));
  b = std::clamp<long long>(b, 0, static_cast<long long>(counts.size()) - 1);
  ++counts[static_cast<std::size_t>(b)];
}

std::size_t Histogram::total() const {
  std::size_t t = 0;
  for (std::size_t c : counts) t += c;
  return t;
}

double Histogram::fraction(std::size_t b) const {
  const std::size_t t = total();
  return t == 0 ? 0.0
                : static_cast<double>(counts.at(b)) / static_cast<double>(t);
}

double Histogram::bin_center(std::size_t b) const {
  const double width = (hi - lo) / static_cast<double>(counts.size());
  return lo + width * (static_cast<double>(b) + 0.5);
}

}  // namespace pjsched::metrics
