// Fixture: staged as src/sim/event_engine.cc — all flow/clock math goes
// through the sim_math.h helpers; iteration is over ordered containers;
// time is monotonic, and the one wall-clock read carries its marker.
// Expect clean.
#include <chrono>
#include <map>
#include <string>

#include "src/sim/sim_math.h"

namespace pjsched::sim {

double advance(double coord, double W, double s) {
  return completion_dt(coord, W, s);
}

bool ready(double coord, double W) { return coord_due(coord, W); }

double fold(const std::map<std::string, double>& weights) {
  double sum = 0.0;
  for (const auto& kv : weights) {
    sum += kv.second;
  }
  return sum;
}

long monotonic_ns() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

long justified_wall_clock() {
  // lint: allow(entropy-source): report header timestamp only; never feeds
  // back into scheduling decisions.
  return std::chrono::system_clock::now().time_since_epoch().count();
}

}  // namespace pjsched::sim
