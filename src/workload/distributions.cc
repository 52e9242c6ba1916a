#include "src/workload/distributions.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pjsched::workload {

DiscreteWorkDistribution::DiscreteWorkDistribution(std::string name,
                                                   std::vector<Bin> bins)
    : name_(std::move(name)), bins_(std::move(bins)) {
  if (bins_.empty())
    throw std::invalid_argument("DiscreteWorkDistribution: no bins");
  double total = 0.0;
  for (const Bin& b : bins_) {
    if (!(b.work_ms > 0.0))
      throw std::invalid_argument(
          "DiscreteWorkDistribution: non-positive work");
    if (!(b.probability > 0.0))
      throw std::invalid_argument(
          "DiscreteWorkDistribution: non-positive probability");
    total += b.probability;
  }
  pmf_.reserve(bins_.size());
  cdf_.reserve(bins_.size());
  double acc = 0.0;
  for (const Bin& b : bins_) {
    const double p = b.probability / total;
    pmf_.push_back(p);
    acc += p;
    cdf_.push_back(acc);
    mean_ms_ += p * b.work_ms;
  }
  cdf_.back() = 1.0;  // guard against rounding leaving the last bin short
}

double DiscreteWorkDistribution::sample_ms(sim::Rng& rng) const {
  const double u = rng.uniform_double();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  const std::size_t idx = std::min<std::size_t>(
      static_cast<std::size_t>(it - cdf_.begin()), bins_.size() - 1);
  return bins_[idx].work_ms;
}

LognormalWorkDistribution::LognormalWorkDistribution(double mu, double sigma,
                                                     double min_ms,
                                                     double max_ms)
    : mu_(mu), sigma_(sigma), min_ms_(min_ms), max_ms_(max_ms) {
  if (!(sigma > 0.0))
    throw std::invalid_argument("LognormalWorkDistribution: sigma <= 0");
  if (!(min_ms > 0.0) || !(min_ms < max_ms))
    throw std::invalid_argument(
        "LognormalWorkDistribution: bad truncation range");
}

double LognormalWorkDistribution::sample_ms(sim::Rng& rng) const {
  // Rejection against the truncation bounds; the defaults reject < 2% of
  // draws, so this terminates quickly with overwhelming probability.
  for (int attempt = 0; attempt < 1000; ++attempt) {
    const double x = rng.lognormal(mu_, sigma_);
    if (x >= min_ms_ && x <= max_ms_) return x;
  }
  return std::clamp(std::exp(mu_), min_ms_, max_ms_);
}

double LognormalWorkDistribution::mean_ms() const {
  return std::exp(mu_ + sigma_ * sigma_ / 2.0);
}

DiscreteWorkDistribution bing_distribution() {
  // Reconstruction of Figure 3(a): head-heavy with a tail to ~205 ms.
  return DiscreteWorkDistribution(
      "bing", {
                  {5.0, 0.60},
                  {10.0, 0.20},
                  {15.0, 0.06},
                  {20.0, 0.04},
                  {30.0, 0.03},
                  {45.0, 0.02},
                  {65.0, 0.015},
                  {95.0, 0.007},
                  {135.0, 0.003},
                  {205.0, 0.001},
              });
}

DiscreteWorkDistribution finance_distribution() {
  // Reconstruction of Figure 3(b): bimodal over 4..52 ms.
  return DiscreteWorkDistribution(
      "finance", {
                     {4.0, 0.45},
                     {8.0, 0.20},
                     {12.0, 0.08},
                     {16.0, 0.04},
                     {20.0, 0.03},
                     {24.0, 0.02},
                     {28.0, 0.02},
                     {32.0, 0.03},
                     {36.0, 0.04},
                     {40.0, 0.03},
                     {44.0, 0.015},
                     {48.0, 0.007},
                     {52.0, 0.003},
                 });
}

LognormalWorkDistribution default_lognormal_distribution() {
  const double sigma = 1.0;
  const double mu = std::log(10.0) - sigma * sigma / 2.0;
  return LognormalWorkDistribution(mu, sigma, 1.0, 300.0);
}

double utilization(const WorkDistribution& dist, double qps, unsigned m) {
  if (m == 0) throw std::invalid_argument("utilization: m == 0");
  return qps * (dist.mean_ms() / 1000.0) / static_cast<double>(m);
}

}  // namespace pjsched::workload
