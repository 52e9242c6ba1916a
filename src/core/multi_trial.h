// Multi-trial experiment support: run a (workload, scheduler) cell across
// R independent trials — fresh workload sample and fresh scheduler
// randomness per trial — and report mean / stddev / min / max of each
// objective.  Randomized work stealing's guarantees are "with high
// probability", so single-trial numbers understate the story; the paper
// itself averages over 100k jobs per point.
#pragma once

#include <cstddef>

#include "src/core/run.h"
#include "src/core/types.h"
#include "src/metrics/stats.h"
#include "src/workload/distributions.h"
#include "src/workload/generator.h"

namespace pjsched::core {

struct TrialConfig {
  std::size_t trials = 5;
  workload::GeneratorConfig generator;  ///< per-trial seed derived from this
  MachineConfig machine;
  SchedulerSpec scheduler;
  /// If true every trial reuses the trial-0 instance and only the
  /// scheduler's randomness varies — isolates scheduler variance from
  /// workload variance (only meaningful for randomized schedulers).
  bool fixed_instance = false;
};

struct TrialOutcome {
  metrics::Summary max_flow;           ///< across trials
  metrics::Summary mean_flow;
  metrics::Summary max_weighted_flow;
  metrics::Summary ratio_to_opt;       ///< per-trial max_flow / opt-sim bound
  std::size_t trials = 0;
};

/// Runs the trials one after another; trial t uses generator seed
/// `generator.seed + t` (or the fixed trial-0 instance) and scheduler seed
/// `scheduler.seed + t`, so every trial is a pure function of (dist, cfg, t).
TrialOutcome run_trials(const workload::WorkDistribution& dist,
                        const TrialConfig& cfg);

}  // namespace pjsched::core
