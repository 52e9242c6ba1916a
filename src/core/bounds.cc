#include "src/core/bounds.h"

#include <algorithm>
#include <stdexcept>

#include "src/sim/sim_math.h"

namespace pjsched::core {

namespace {
void check_m(unsigned m) {
  if (m == 0) throw std::invalid_argument("lower bound: m == 0");
}
}  // namespace

LowerBoundSet stream_lower_bounds(JobSource& source, unsigned m) {
  check_m(m);
  LowerBoundSet b;
  // FIFO on one machine with processing times W_i/m; the max flow of that
  // schedule (optimal for the relaxed instance, hence a lower bound) needs
  // only the frontier scalar — no per-job state survives the iteration.
  double frontier = 0.0;
  while (!source.done()) {
    const StreamedJob job = source.take();
    const dag::Dag& g = job.dag();
    const double cp = static_cast<double>(g.critical_path());
    const double work = static_cast<double>(g.total_work());
    const double relaxed = sim::relaxed_job_length(work, m);
    b.span = std::max(b.span, cp);
    b.work = std::max(b.work, relaxed);
    frontier = sim::fifo_frontier_advance(frontier, job.arrival, relaxed);
    b.opt_sim = std::max(b.opt_sim, frontier - job.arrival);
    b.weighted_span = std::max(b.weighted_span, job.weight * cp);
    b.weighted_work = std::max(b.weighted_work,
                               sim::relaxed_job_length(job.weight * work, m));
    ++b.jobs;
  }
  b.combined = std::max(b.span, std::max(b.work, b.opt_sim));
  b.weighted_combined = std::max(b.weighted_span, b.weighted_work);
  return b;
}

LowerBoundSet lower_bounds(const Instance& instance, unsigned m) {
  InstanceSource source(instance);
  return stream_lower_bounds(source, m);
}

}  // namespace pjsched::core
