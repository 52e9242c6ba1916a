#include "src/workload/lower_bound_instance.h"

#include <algorithm>
#include <stdexcept>

#include "src/dag/builders.h"

namespace pjsched::workload {

core::Instance make_lower_bound_instance(const LowerBoundConfig& cfg) {
  if (cfg.m == 0)
    throw std::invalid_argument("make_lower_bound_instance: m == 0");
  if (cfg.num_jobs == 0)
    throw std::invalid_argument("make_lower_bound_instance: num_jobs == 0");
  const unsigned children =
      cfg.children != 0 ? cfg.children : std::max(1u, cfg.m / 10);
  if (children > cfg.m)
    throw std::invalid_argument(
        "make_lower_bound_instance: children > m breaks the OPT = 2 argument");

  const dag::Dag job_shape = dag::star(children);
  core::Instance inst;
  inst.jobs.reserve(cfg.num_jobs);
  for (std::size_t j = 0; j < cfg.num_jobs; ++j) {
    core::JobSpec spec;
    spec.arrival = 2.0 * static_cast<double>(cfg.m) * static_cast<double>(j);
    spec.graph = job_shape;  // shared shape, copied per job
    inst.jobs.push_back(std::move(spec));
  }
  return inst;
}

double lower_bound_opt_flow() { return 2.0; }

}  // namespace pjsched::workload
