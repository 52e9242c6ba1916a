// Figure-2-style experiment driver: sweep (workload distribution x QPS x
// scheduler), simulate, and collect one row per cell with max/mean/p99 flow
// (reported in milliseconds) and the ratio to the simulated-OPT lower
// bound.  Benches and examples print the resulting table.
#pragma once

#include <string>
#include <vector>

#include "src/core/run.h"
#include "src/core/types.h"
#include "src/metrics/table.h"
#include "src/workload/distributions.h"
#include "src/workload/generator.h"

namespace pjsched::core {

struct ExperimentConfig {
  unsigned processors = 16;  ///< the paper's dual 8-core testbed
  double speed = 1.0;
  std::size_t num_jobs = 20000;
  std::vector<double> qps_values;
  std::vector<SchedulerSpec> schedulers;
  std::size_t grains = 32;
  double units_per_ms = 10.0;
  std::uint64_t seed = 42;
  std::vector<double> weight_classes = {1.0};
};

struct ExperimentRow {
  std::string workload;
  double qps = 0.0;
  double utilization = 0.0;
  std::string scheduler;
  double max_flow_ms = 0.0;
  double mean_flow_ms = 0.0;
  double p99_flow_ms = 0.0;
  double max_weighted_flow_ms = 0.0;
  double opt_bound_ms = 0.0;   ///< simulated-OPT max flow for this cell
  double ratio_to_opt = 0.0;   ///< max_flow / opt_bound
};

/// Runs the full sweep.  Each (qps) cell generates one instance (shared by
/// all schedulers of that cell, so comparisons are paired) and additionally
/// evaluates the OPT lower bound on it.
std::vector<ExperimentRow> run_experiment(
    const workload::WorkDistribution& dist, const ExperimentConfig& cfg);

/// Renders rows as the table the paper's Figure 2 plots (max flow time in
/// seconds per scheduler per QPS).
metrics::Table rows_to_table(const std::vector<ExperimentRow>& rows);

}  // namespace pjsched::core
