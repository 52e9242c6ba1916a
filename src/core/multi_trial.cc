#include "src/core/multi_trial.h"

#include <stdexcept>
#include <vector>

#include "src/core/bounds.h"

namespace pjsched::core {

TrialOutcome run_trials(const workload::WorkDistribution& dist,
                        const TrialConfig& cfg) {
  if (cfg.trials == 0) throw std::invalid_argument("run_trials: zero trials");

  // A fixed instance never changes across trials, so neither does its
  // bound: both are computed once here instead of once per trial.
  Instance fixed;
  double fixed_bound = 0.0;
  if (cfg.fixed_instance) {
    fixed = workload::generate_instance(dist, cfg.generator);
    fixed_bound = lower_bounds(fixed, cfg.machine.processors).opt_sim;
  }

  std::vector<double> max_flows, mean_flows, wmax_flows, ratios;
  max_flows.reserve(cfg.trials);
  mean_flows.reserve(cfg.trials);
  wmax_flows.reserve(cfg.trials);
  ratios.reserve(cfg.trials);
  for (std::size_t t = 0; t < cfg.trials; ++t) {
    Instance generated;
    const Instance* instance = &fixed;
    double bound = fixed_bound;
    if (!cfg.fixed_instance) {
      workload::GeneratorConfig gen = cfg.generator;
      gen.seed = cfg.generator.seed + t;
      generated = workload::generate_instance(dist, gen);
      instance = &generated;
      bound = lower_bounds(generated, cfg.machine.processors).opt_sim;
    }

    SchedulerSpec spec = cfg.scheduler;
    spec.seed = cfg.scheduler.seed + t;
    const StreamRunResult res = run_scheduler(*instance, spec, cfg.machine);
    max_flows.push_back(res.max_flow);
    mean_flows.push_back(res.mean_flow);
    wmax_flows.push_back(res.max_weighted_flow);
    ratios.push_back(bound > 0.0 ? res.max_flow / bound : 0.0);
  }

  TrialOutcome out;
  out.max_flow = metrics::summarize(max_flows);
  out.mean_flow = metrics::summarize(mean_flows);
  out.max_weighted_flow = metrics::summarize(wmax_flows);
  out.ratio_to_opt = metrics::summarize(ratios);
  out.trials = cfg.trials;
  return out;
}

}  // namespace pjsched::core
