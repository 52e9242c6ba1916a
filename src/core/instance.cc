#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "src/core/types.h"

namespace pjsched::core {

dag::Work Instance::total_work() const {
  dag::Work w = 0;
  for (const JobSpec& j : jobs) w += j.graph.total_work();
  return w;
}

dag::Work Instance::max_critical_path() const {
  dag::Work p = 0;
  for (const JobSpec& j : jobs) p = std::max(p, j.graph.critical_path());
  return p;
}

dag::Work Instance::max_work() const {
  dag::Work w = 0;
  for (const JobSpec& j : jobs) w = std::max(w, j.graph.total_work());
  return w;
}

void Instance::validate() const {
  if (jobs.empty()) throw std::invalid_argument("Instance: no jobs");
  for (const JobSpec& j : jobs) {
    if (!j.graph.sealed())
      throw std::invalid_argument("Instance: job DAG not sealed");
    if (j.graph.node_count() == 0)
      throw std::invalid_argument("Instance: empty job DAG");
    if (!(j.arrival >= 0.0) || !std::isfinite(j.arrival))
      throw std::invalid_argument("Instance: arrival not finite and >= 0");
    if (!(j.weight > 0.0) || !std::isfinite(j.weight))
      throw std::invalid_argument("Instance: weight not finite and > 0");
  }
}

std::vector<JobId> Instance::arrival_order() const {
  std::vector<JobId> order(jobs.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [this](JobId a, JobId b) {
    return jobs[a].arrival < jobs[b].arrival;
  });
  return order;
}

}  // namespace pjsched::core
