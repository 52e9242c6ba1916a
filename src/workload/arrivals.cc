#include "src/workload/arrivals.h"

#include <stdexcept>

namespace pjsched::workload {

PoissonArrivals::PoissonArrivals(double qps, sim::Rng rng)
    : qps_(qps), rng_(rng) {
  if (!(qps > 0.0)) throw std::invalid_argument("PoissonArrivals: qps <= 0");
}

double PoissonArrivals::next_ms() {
  // Inter-arrival ~ Exp(qps) in seconds -> * 1000 for ms.
  now_ms_ += rng_.exponential(qps_) * 1000.0;
  return now_ms_;
}

MmppArrivals::MmppArrivals(double qps_burst, double qps_calm,
                           double mean_sojourn_ms, sim::Rng rng)
    : qps_burst_(qps_burst),
      qps_calm_(qps_calm),
      mean_sojourn_ms_(mean_sojourn_ms),
      rng_(rng) {
  if (!(qps_burst > 0.0) || !(qps_calm > 0.0))
    throw std::invalid_argument("MmppArrivals: rates must be positive");
  if (!(mean_sojourn_ms > 0.0))
    throw std::invalid_argument("MmppArrivals: sojourn must be positive");
  state_end_ms_ = rng_.exponential(1.0 / mean_sojourn_ms_);
}

double MmppArrivals::next_ms() {
  for (;;) {
    const double rate = (in_burst_ ? qps_burst_ : qps_calm_) / 1000.0;  // /ms
    const double gap = rng_.exponential(rate);
    if (now_ms_ + gap <= state_end_ms_) {
      now_ms_ += gap;
      return now_ms_;
    }
    // The candidate arrival falls past the state boundary: advance to the
    // boundary and resample in the new state (memorylessness makes the
    // discarded partial gap exact, not an approximation).
    now_ms_ = state_end_ms_;
    in_burst_ = !in_burst_;
    state_end_ms_ = now_ms_ + rng_.exponential(1.0 / mean_sojourn_ms_);
  }
}

}  // namespace pjsched::workload
