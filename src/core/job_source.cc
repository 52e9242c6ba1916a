#include "src/core/job_source.h"

#include <stdexcept>

namespace pjsched::core {

InstanceSource::InstanceSource(const Instance& instance)
    : instance_(&instance), order_(instance.arrival_order()) {}

bool InstanceSource::produce(StreamedJob& out) {
  if (next_ >= order_.size()) return false;
  const JobId j = order_[next_++];
  out.id = j;
  out.arrival = instance_->jobs[j].arrival;
  out.weight = instance_->jobs[j].weight;
  out.borrowed = &instance_->jobs[j].graph;
  out.graph = dag::Dag{};
  return true;
}

Instance materialize(JobSource& source) {
  Instance inst;
  inst.jobs.resize(source.size());
  std::size_t yielded = 0;
  while (!source.done()) {
    StreamedJob job = source.take();
    if (job.id >= inst.jobs.size())
      throw std::logic_error("materialize: streamed id out of range");
    JobSpec& spec = inst.jobs[job.id];
    spec.arrival = job.arrival;
    spec.weight = job.weight;
    spec.graph = job.borrowed != nullptr ? *job.borrowed : std::move(job.graph);
    ++yielded;
  }
  if (yielded != inst.jobs.size())
    throw std::logic_error(
        "materialize: source yielded fewer jobs than size()");
  return inst;
}

}  // namespace pjsched::core
