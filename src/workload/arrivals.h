// Arrival processes.  The paper's evaluation generates inter-arrival times
// from a Poisson process with mean 1/QPS (Section 6, "Workloads").
#pragma once

#include <vector>

#include "src/sim/rng.h"

namespace pjsched::workload {

/// Poisson arrival process: exponential inter-arrival times with rate
/// `qps` jobs per second.  next_ms() returns successive absolute arrival
/// times in milliseconds, starting from 0.
class PoissonArrivals {
 public:
  PoissonArrivals(double qps, sim::Rng rng);

  /// Absolute arrival time of the next job, in ms (strictly increasing).
  double next_ms();

  double qps() const { return qps_; }

 private:
  double qps_;
  double now_ms_ = 0.0;
  sim::Rng rng_;
};

/// Markov-modulated Poisson process with two states (burst / calm): the
/// process alternates between exponentially-distributed sojourns in a
/// high-rate and a low-rate state.  At equal average rate this produces a
/// far heavier backlog tail than plain Poisson — the stress case for
/// maximum flow time.
class MmppArrivals {
 public:
  /// `qps_burst` / `qps_calm`: arrival rates in each state;
  /// `mean_sojourn_ms`: average dwell time in each state.
  MmppArrivals(double qps_burst, double qps_calm, double mean_sojourn_ms,
               sim::Rng rng);

  double next_ms();

 private:
  double qps_burst_, qps_calm_, mean_sojourn_ms_;
  bool in_burst_ = true;
  double now_ms_ = 0.0;
  double state_end_ms_ = 0.0;
  sim::Rng rng_;
};

/// Generates `count` absolute arrival times in ms from any arrival source.
template <typename Arrivals>
std::vector<double> take_arrivals(Arrivals& src, std::size_t count) {
  std::vector<double> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(src.next_ms());
  return out;
}

}  // namespace pjsched::workload
