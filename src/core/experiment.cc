#include "src/core/experiment.h"

#include <algorithm>
#include <stdexcept>

#include "src/metrics/stats.h"

namespace pjsched::core {

std::vector<ExperimentRow> run_experiment(
    const workload::WorkDistribution& dist, const ExperimentConfig& cfg) {
  if (cfg.qps_values.empty())
    throw std::invalid_argument("run_experiment: no QPS values");
  if (cfg.schedulers.empty())
    throw std::invalid_argument("run_experiment: no schedulers");

  const MachineConfig machine{cfg.processors, cfg.speed};
  std::vector<ExperimentRow> rows;

  for (double qps : cfg.qps_values) {
    workload::GeneratorConfig gen;
    gen.num_jobs = cfg.num_jobs;
    gen.qps = qps;
    gen.units_per_ms = cfg.units_per_ms;
    gen.grains = cfg.grains;
    gen.seed = cfg.seed;
    gen.weight_classes = cfg.weight_classes;
    const Instance instance = workload::generate_instance(dist, gen);

    // The paper's OPT comparator, once per cell.
    const StreamRunResult opt =
        run_scheduler(instance, {SchedulerKind::kOptBound}, machine);
    const double opt_ms = opt.max_flow / cfg.units_per_ms;

    for (const SchedulerSpec& spec : cfg.schedulers) {
      const StreamRunResult res = run_scheduler(instance, spec, machine);
      ExperimentRow row;
      row.workload = dist.name();
      row.qps = qps;
      row.utilization = workload::utilization(dist, qps, cfg.processors);
      row.scheduler = res.scheduler_name;
      row.max_flow_ms = res.max_flow / cfg.units_per_ms;
      row.mean_flow_ms = res.mean_flow / cfg.units_per_ms;
      row.max_weighted_flow_ms = res.max_weighted_flow / cfg.units_per_ms;
      std::vector<double> flows_ms(res.job_flow.size());
      for (std::size_t i = 0; i < res.job_flow.size(); ++i)
        flows_ms[i] = res.job_flow[i] / cfg.units_per_ms;
      row.p99_flow_ms = metrics::quantile_select(flows_ms, 0.99);
      row.opt_bound_ms = opt_ms;
      row.ratio_to_opt = opt_ms > 0.0 ? row.max_flow_ms / opt_ms : 0.0;
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

metrics::Table rows_to_table(const std::vector<ExperimentRow>& rows) {
  metrics::Table table({"workload", "qps", "util", "scheduler", "max_flow_ms",
                        "mean_flow_ms", "p99_flow_ms", "opt_bound_ms",
                        "ratio_to_opt"});
  for (const ExperimentRow& r : rows)
    table.add_row({r.workload, metrics::Table::cell(r.qps),
                   metrics::Table::cell(r.utilization), r.scheduler,
                   metrics::Table::cell(r.max_flow_ms),
                   metrics::Table::cell(r.mean_flow_ms),
                   metrics::Table::cell(r.p99_flow_ms),
                   metrics::Table::cell(r.opt_bound_ms),
                   metrics::Table::cell(r.ratio_to_opt)});
  return table;
}

}  // namespace pjsched::core
