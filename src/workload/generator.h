// Full online-instance generation: sample job sizes from a work
// distribution, arrival times from a Poisson process at a target QPS, and
// shape each job as a parallel-for DAG (the paper's evaluation jobs are
// "CPU-intensive computation ... parallelized using parallel for loops").
//
// Unit conventions: distributions speak milliseconds; the simulator speaks
// integer work units.  `units_per_ms` fixes the granularity (default 10:
// one unit = 100 microseconds).  Simulated Time is unit-work time, so
// Time-to-ms conversion divides by units_per_ms.
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/types.h"
#include "src/workload/distributions.h"

namespace pjsched::workload {

struct GeneratorConfig {
  std::size_t num_jobs = 1000;
  double qps = 1000.0;            ///< Poisson arrival rate, jobs per second
  double units_per_ms = 10.0;     ///< simulator work units per millisecond
  std::size_t grains = 32;        ///< parallel-for grains per job
  std::uint64_t seed = 42;
  /// Job weights are drawn uniformly from this set (all 1.0 = unweighted,
  /// the default).  Used by the BWF / weighted max-flow experiments.
  std::vector<double> weight_classes = {1.0};
};

/// Builds one parallel-for job DAG of approximately `work_ms` total work:
/// a unit-work root, `grains` body nodes splitting the work as evenly as
/// integer units allow, and a unit-work join.
dag::Dag make_parallel_for_job(double work_ms, std::size_t grains,
                               double units_per_ms);

/// Generates a complete online instance from the distribution and config.
core::Instance generate_instance(const WorkDistribution& dist,
                                 const GeneratorConfig& cfg);

/// Like generate_instance but with caller-supplied absolute arrival times
/// in ms (e.g. from MmppArrivals); cfg.num_jobs and cfg.qps are ignored —
/// one job per arrival.
core::Instance generate_instance_with_arrivals(
    const WorkDistribution& dist, const GeneratorConfig& cfg,
    const std::vector<double>& arrivals_ms);

}  // namespace pjsched::workload
