#include "src/core/run.h"

#include <stdexcept>

#include "src/sched/event_schedulers.h"
#include "src/sched/opt_bound.h"
#include "src/sched/work_stealing.h"

namespace pjsched::core {

std::unique_ptr<sched::Scheduler> make_scheduler(const SchedulerSpec& spec) {
  switch (spec.kind) {
    case SchedulerKind::kFifo:
      return std::make_unique<sched::FifoScheduler>(spec.exact_engine);
    case SchedulerKind::kBwf:
      return std::make_unique<sched::BwfScheduler>(spec.exact_engine);
    case SchedulerKind::kAdmitFirst:
      return std::make_unique<sched::WorkStealingScheduler>(
          0, spec.seed, spec.admit_by_weight);
    case SchedulerKind::kStealKFirst:
      return std::make_unique<sched::WorkStealingScheduler>(
          spec.steal_k, spec.seed, spec.admit_by_weight);
    case SchedulerKind::kOptBound:
      return std::make_unique<sched::OptLowerBound>();
    case SchedulerKind::kLifo:
      return std::make_unique<sched::LifoScheduler>(spec.exact_engine);
    case SchedulerKind::kSjf:
      return std::make_unique<sched::SjfScheduler>(spec.exact_engine);
    case SchedulerKind::kRoundRobin:
      return std::make_unique<sched::RoundRobinScheduler>(spec.exact_engine);
    case SchedulerKind::kEqui:
      return std::make_unique<sched::EquiScheduler>(spec.exact_engine);
  }
  throw std::invalid_argument("make_scheduler: unknown kind");
}

SchedulerSpec parse_scheduler(const std::string& name_in) {
  SchedulerSpec spec;
  std::string name = name_in;
  // "-exact" suffix selects the event engine's reference path.
  if (name.size() > 6 && name.compare(name.size() - 6, 6, "-exact") == 0) {
    spec.exact_engine = true;
    name.resize(name.size() - 6);
  }
  // "-bwf" suffix selects weighted admission for the work-stealing names.
  if (name.size() > 4 && name.compare(name.size() - 4, 4, "-bwf") == 0 &&
      name != "-bwf") {
    spec.admit_by_weight = true;
    name.resize(name.size() - 4);
  }
  if (name == "fifo") {
    spec.kind = SchedulerKind::kFifo;
  } else if (name == "bwf") {
    spec.kind = SchedulerKind::kBwf;
  } else if (name == "admit-first") {
    spec.kind = SchedulerKind::kAdmitFirst;
  } else if (name == "opt" || name == "opt-lower-bound") {
    spec.kind = SchedulerKind::kOptBound;
  } else if (name == "lifo") {
    spec.kind = SchedulerKind::kLifo;
  } else if (name == "sjf") {
    spec.kind = SchedulerKind::kSjf;
  } else if (name == "round-robin") {
    spec.kind = SchedulerKind::kRoundRobin;
  } else if (name == "equi") {
    spec.kind = SchedulerKind::kEqui;
  } else if (name.rfind("steal-", 0) == 0 &&
             name.size() > 12 &&
             name.compare(name.size() - 6, 6, "-first") == 0) {
    try {
      spec.steal_k = parse_unsigned<unsigned>(name.substr(6, name.size() - 12));
    } catch (const std::invalid_argument&) {
      throw std::invalid_argument("parse_scheduler: bad k in '" + name + "'");
    }
    spec.kind = SchedulerKind::kStealKFirst;
  } else {
    throw std::invalid_argument("parse_scheduler: unknown scheduler '" +
                                name_in + "'");
  }
  if (spec.admit_by_weight && spec.kind != SchedulerKind::kAdmitFirst &&
      spec.kind != SchedulerKind::kStealKFirst)
    throw std::invalid_argument(
        "parse_scheduler: '-bwf' applies only to work-stealing schedulers ('" +
        name_in + "')");
  if (spec.exact_engine && spec.kind != SchedulerKind::kFifo &&
      spec.kind != SchedulerKind::kBwf && spec.kind != SchedulerKind::kLifo &&
      spec.kind != SchedulerKind::kSjf &&
      spec.kind != SchedulerKind::kRoundRobin &&
      spec.kind != SchedulerKind::kEqui)
    throw std::invalid_argument(
        "parse_scheduler: '-exact' applies only to event-engine schedulers ('" +
        name_in + "')");
  return spec;
}

StreamRunResult run_scheduler(const Instance& instance,
                              const SchedulerSpec& spec,
                              const MachineConfig& machine, sim::Trace* trace) {
  return make_scheduler(spec)->run(instance, machine, trace);
}

StreamRunResult run_scheduler_streamed(JobSource& source,
                                       const SchedulerSpec& spec,
                                       const MachineConfig& machine,
                                       metrics::StreamingFlowStats* stats,
                                       sim::Trace* trace) {
  return make_scheduler(spec)->run(source, machine, stats, trace);
}

StreamRatioResult run_scheduler_streamed_with_bounds(
    JobSource& run_source, JobSource& bound_source, const SchedulerSpec& spec,
    const MachineConfig& machine, metrics::StreamingFlowStats* stats,
    sim::Trace* trace) {
  StreamRatioResult out;
  // Bounds first: the pass holds O(1) state, so a malformed twin pair fails
  // before the expensive simulation runs.
  out.bounds = stream_lower_bounds(bound_source, machine.processors);
  out.run = run_scheduler_streamed(run_source, spec, machine, stats, trace);
  if (out.bounds.jobs != out.run.jobs)
    throw std::invalid_argument(
        "run_scheduler_streamed_with_bounds: twin sources disagree (" +
        std::to_string(out.bounds.jobs) + " jobs for bounds vs " +
        std::to_string(out.run.jobs) + " for the run)");
  if (out.bounds.combined > 0.0)
    out.ratio = out.run.max_flow / out.bounds.combined;
  if (out.bounds.weighted_combined > 0.0)
    out.weighted_ratio =
        out.run.max_weighted_flow / out.bounds.weighted_combined;
  return out;
}

}  // namespace pjsched::core
