// The paper's simulated-OPT lower bound (Section 6).
//
// Computing the true optimal max-flow schedule for online DAG jobs is
// intractable, so the paper compares against a *lower bound*: assume every
// job is fully parallelizable with zero overhead, i.e. behaves as a
// sequential job of length W_i/m, and schedule these on a single machine by
// FIFO — which is optimal for max flow time on one machine.  Every feasible
// schedule of the real instance has max flow >= this bound, so a scheduler
// that is close to it is close to OPT.
//
// OptLowerBound computes the bound analytically in one pass over the
// source, in arrival order:
//     c_i = max(r_i, c_prev) + W_i / m
// with the same sim_math.h formulas as core::stream_lower_bounds, so its
// max flow is bitwise that pass's opt_sim.  It deliberately ignores the
// machine's speed: OPT is always the 1-speed adversary in the paper's
// resource-augmentation analyses.
#pragma once

#include "src/sched/scheduler.h"

namespace pjsched::sched {

class OptLowerBound final : public Scheduler {
 private:
  /// Analytic; `trace` is ignored (there is no machine-model execution to
  /// audit — the bound is not a feasible schedule of the DAG instance).
  core::StreamRunResult simulate(core::JobSource& source,
                                 const core::MachineConfig& machine,
                                 metrics::StreamingFlowStats* stats,
                                 sim::Trace* trace) override;
};

}  // namespace pjsched::sched
