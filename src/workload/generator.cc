#include "src/workload/generator.h"

#include <cmath>
#include <stdexcept>

#include "src/core/job_source.h"
#include "src/dag/builders.h"
#include "src/workload/streaming_source.h"

namespace pjsched::workload {

dag::Dag make_parallel_for_job(double work_ms, std::size_t grains,
                               double units_per_ms) {
  if (grains == 0)
    throw std::invalid_argument("make_parallel_for_job: grains == 0");
  const auto total_units = static_cast<std::uint64_t>(
      std::llround(std::max(1.0, work_ms * units_per_ms)));
  if (total_units <= 2 || grains == 1) {
    // Too small to be worth forking: a single sequential node.
    return dag::single_node(std::max<std::uint64_t>(total_units, 1));
  }
  // Root and join take one unit each; the body splits the rest as evenly as
  // integer units allow (the first `rem` grains get one extra unit).
  const std::uint64_t body_units = total_units - 2;
  const std::size_t g = std::min<std::size_t>(grains, body_units);
  const std::uint64_t base = body_units / g;
  const std::uint64_t rem = body_units % g;
  return dag::parallel_for_dag_fn(
      g, [base, rem](std::size_t i) { return base + (i < rem ? 1 : 0); },
      /*root_work=*/1, /*join_work=*/1);
}

// Both generators are thin materializations of the streaming sources in
// streaming_source.h: validate (keeping the historical messages), build the
// source, drain it.  Streamed ids are generation order, so the materialized
// job list is bit-identical to what the loop-based implementations built.

core::Instance generate_instance_with_arrivals(
    const WorkDistribution& dist, const GeneratorConfig& cfg,
    const std::vector<double>& arrivals_ms) {
  if (arrivals_ms.empty())
    throw std::invalid_argument("generate_instance_with_arrivals: no arrivals");
  if (!(cfg.units_per_ms > 0.0))
    throw std::invalid_argument(
        "generate_instance_with_arrivals: units_per_ms <= 0");
  if (cfg.weight_classes.empty())
    throw std::invalid_argument(
        "generate_instance_with_arrivals: no weight classes");

  ArrivalListJobSource source(dist, cfg, arrivals_ms);
  return core::materialize(source);
}

core::Instance generate_instance(const WorkDistribution& dist,
                                 const GeneratorConfig& cfg) {
  if (cfg.num_jobs == 0)
    throw std::invalid_argument("generate_instance: num_jobs == 0");
  if (!(cfg.units_per_ms > 0.0))
    throw std::invalid_argument("generate_instance: units_per_ms <= 0");
  if (cfg.weight_classes.empty())
    throw std::invalid_argument("generate_instance: no weight classes");

  GeneratedJobSource source(dist, cfg);
  return core::materialize(source);
}

}  // namespace pjsched::workload
