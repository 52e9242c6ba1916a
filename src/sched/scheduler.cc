#include "src/sched/scheduler.h"

#include <stdexcept>
#include <string>

#include "src/metrics/streaming_stats.h"

namespace pjsched::sched {

core::StreamRunResult Scheduler::run(const core::Instance& instance,
                                     const core::MachineConfig& machine,
                                     sim::Trace* trace) {
  instance.validate();
  core::InstanceSource source(instance);
  // A reservoir of n keeps every sample, so the flow Summary is exact; the
  // per-id capture fills the per-job vectors.
  const std::size_t n = instance.size();
  metrics::StreamingFlowStats stats(
      metrics::StreamingFlowStats::Options{.reservoir = n, .per_job = n});
  core::StreamRunResult result = simulate(source, machine, &stats, trace);
  if (result.jobs != n)
    throw std::logic_error("Scheduler::run: " + std::to_string(result.jobs) +
                           " of " + std::to_string(n) + " jobs completed");
  return result;
}

}  // namespace pjsched::sched
