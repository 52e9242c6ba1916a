#include "src/sched/opt_bound.h"

#include <stdexcept>

#include "src/metrics/streaming_stats.h"
#include "src/sim/sim_math.h"

namespace pjsched::sched {

core::StreamRunResult OptLowerBound::simulate(
    core::JobSource& source, const core::MachineConfig& machine,
    metrics::StreamingFlowStats* stats, sim::Trace* /*trace*/) {
  if (machine.processors == 0)
    throw std::invalid_argument("OptLowerBound: zero processors");
  metrics::StreamingFlowStats local;
  metrics::StreamingFlowStats& sink = stats != nullptr ? *stats : local;

  // FIFO on a single speed-1 machine where job i has processing time
  // W_i / m — the shared formulas of the streamed bounds (sim/sim_math.h),
  // so this run's max flow is bitwise stream_lower_bounds' opt_sim.
  const double m = static_cast<double>(machine.processors);
  core::Time frontier = 0.0;
  while (!source.done()) {
    const core::StreamedJob job = source.take();
    const double p =
        sim::relaxed_job_length(static_cast<double>(job.dag().total_work()), m);
    frontier = sim::fifo_frontier_advance(frontier, job.arrival, p);
    sink.record(job.id, job.arrival, job.weight, frontier);
  }
  return sink.result("opt-lower-bound", core::EngineStats{});
}

}  // namespace pjsched::sched
