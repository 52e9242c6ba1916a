#include "src/sched/work_stealing.h"

#include "src/sim/step_engine.h"

namespace pjsched::sched {

core::StreamRunResult WorkStealingScheduler::simulate(
    core::JobSource& source, const core::MachineConfig& machine,
    metrics::StreamingFlowStats* stats, sim::Trace* trace) {
  sim::StepEngineOptions opt;
  opt.machine = machine;
  opt.steal_k = steal_k_;
  opt.seed = seed_;
  opt.admit_by_weight = admit_by_weight_;
  opt.steal_half = steal_half_;
  opt.trace = trace;
  return sim::run_step_engine(source, opt, stats);
}

}  // namespace pjsched::sched
