#include "src/core/multi_trial.h"

#include <stdexcept>

#include "src/core/bounds.h"

namespace pjsched::core {

FixedInstance make_fixed_instance(const workload::WorkDistribution& dist,
                                  const TrialConfig& cfg) {
  FixedInstance fixed;
  fixed.instance = workload::generate_instance(dist, cfg.generator);
  // The instance never changes across trials, so neither does its bound —
  // computed once here instead of once per trial.
  fixed.opt_bound =
      lower_bounds(fixed.instance, cfg.machine.processors).opt_sim;
  return fixed;
}

TrialPoint run_one_trial(const workload::WorkDistribution& dist,
                         const TrialConfig& cfg, std::size_t t,
                         const FixedInstance* fixed) {
  if (cfg.fixed_instance != (fixed != nullptr))
    throw std::invalid_argument(
        "run_one_trial: fixed instance must be supplied exactly when "
        "cfg.fixed_instance is set");

  Instance generated;
  const Instance* instance = nullptr;
  double bound = 0.0;
  if (fixed != nullptr) {
    instance = &fixed->instance;
    bound = fixed->opt_bound;
  } else {
    workload::GeneratorConfig gen = cfg.generator;
    gen.seed = cfg.generator.seed + t;
    generated = workload::generate_instance(dist, gen);
    instance = &generated;
    bound = lower_bounds(*instance, cfg.machine.processors).opt_sim;
  }

  SchedulerSpec spec = cfg.scheduler;
  spec.seed = cfg.scheduler.seed + t;
  const ScheduleResult res = run_scheduler(*instance, spec, cfg.machine);

  TrialPoint point;
  point.max_flow = res.max_flow;
  point.mean_flow = res.mean_flow;
  point.max_weighted_flow = res.max_weighted_flow;
  point.ratio_to_opt = bound > 0.0 ? res.max_flow / bound : 0.0;
  return point;
}

TrialOutcome summarize_trials(const std::vector<TrialPoint>& points) {
  std::vector<double> max_flows, mean_flows, wmax_flows, ratios;
  max_flows.reserve(points.size());
  mean_flows.reserve(points.size());
  wmax_flows.reserve(points.size());
  ratios.reserve(points.size());
  for (const TrialPoint& p : points) {
    max_flows.push_back(p.max_flow);
    mean_flows.push_back(p.mean_flow);
    wmax_flows.push_back(p.max_weighted_flow);
    ratios.push_back(p.ratio_to_opt);
  }

  TrialOutcome out;
  out.max_flow = metrics::summarize(max_flows);
  out.mean_flow = metrics::summarize(mean_flows);
  out.max_weighted_flow = metrics::summarize(wmax_flows);
  out.ratio_to_opt = metrics::summarize(ratios);
  out.trials = points.size();
  return out;
}

TrialOutcome run_trials(const workload::WorkDistribution& dist,
                        const TrialConfig& cfg) {
  if (cfg.trials == 0) throw std::invalid_argument("run_trials: zero trials");

  FixedInstance fixed;
  if (cfg.fixed_instance) fixed = make_fixed_instance(dist, cfg);

  std::vector<TrialPoint> points(cfg.trials);
  for (std::size_t t = 0; t < cfg.trials; ++t)
    points[t] = run_one_trial(dist, cfg, t, cfg.fixed_instance ? &fixed : nullptr);
  return summarize_trials(points);
}

}  // namespace pjsched::core
