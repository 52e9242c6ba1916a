#include "src/sched/scheduler.h"

#include <utility>

namespace pjsched::sched {

core::ScheduleResult Scheduler::run(const core::Instance& instance,
                                    const core::MachineConfig& machine,
                                    sim::Trace* trace) {
  instance.validate();
  core::InstanceSource source(instance);
  core::ScheduleResult result;
  core::StreamRunResult streamed =
      simulate(source, machine, nullptr, trace, &result.completion);
  result.scheduler_name = std::move(streamed.scheduler_name);
  result.stats = streamed.stats;
  result.finalize(instance.jobs);
  return result;
}

}  // namespace pjsched::sched
