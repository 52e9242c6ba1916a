#include "src/core/stretch.h"

#include <algorithm>
#include <stdexcept>

namespace pjsched::core {

double stretch_denominator(const JobSpec& job, StretchKind kind) {
  switch (kind) {
    case StretchKind::kByWork:
      return static_cast<double>(job.graph.total_work());
    case StretchKind::kBySpan:
      return static_cast<double>(job.graph.critical_path());
  }
  throw std::invalid_argument("stretch_denominator: unknown kind");
}

void apply_stretch_weights(Instance& instance, StretchKind kind) {
  for (JobSpec& job : instance.jobs)
    job.weight = 1.0 / stretch_denominator(job, kind);
}

double max_stretch(const Instance& instance, const StreamRunResult& result,
                   StretchKind kind) {
  if (result.job_flow.size() != instance.size())
    throw std::invalid_argument("max_stretch: result/instance size mismatch");
  double best = 0.0;
  for (std::size_t i = 0; i < instance.size(); ++i)
    best = std::max(best, result.job_flow[i] /
                              stretch_denominator(instance.jobs[i], kind));
  return best;
}

}  // namespace pjsched::core
