// Common scheduler interface.  A Scheduler runs one policy over a
// core::JobSource: implementations wrap one of the two simulation engines
// (src/sim) with a policy, or — for OptLowerBound — the Section-6
// relaxation.  Schedulers are reusable: run() may be called many times.
//
// Each scheduler implements one private virtual, simulate(), which pulls
// the source with O(live jobs) resident state.  The two public run()
// overloads are non-virtual front ends over it, and both return a
// core::StreamRunResult:
//  * run(JobSource&, ...) returns exact extremes plus reservoir-backed
//    summary statistics, with no per-job state;
//  * run(const Instance&, ...) validates the instance, streams it through
//    a core::InstanceSource, and also fills the per-job completion and
//    flow vectors by id, with an exact flow Summary.
// Streamed and materialized runs are therefore one code path, and a
// subclass overriding simulate() cannot hide either overload.  A run's
// name ("fifo", "steal-16-first", ...) is its result's scheduler_name,
// which the engine or bound that produced it spells.
#pragma once

#include "src/core/job_source.h"
#include "src/core/types.h"
#include "src/sim/trace.h"

namespace pjsched::metrics {
class StreamingFlowStats;
}  // namespace pjsched::metrics

namespace pjsched::sched {

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Simulates the instance to completion on the given machine.  If `trace`
  /// is non-null, records the execution for auditing.  Throws
  /// std::invalid_argument on an invalid instance or machine, and
  /// std::logic_error if the run does not complete every job.
  core::StreamRunResult run(const core::Instance& instance,
                            const core::MachineConfig& machine,
                            sim::Trace* trace = nullptr);

  /// Simulates `source` to exhaustion with O(live jobs) resident state;
  /// completions land in `stats` (a local StreamingFlowStats when null).
  /// Bit-identical extremes to run() on the materialized equivalent.  If
  /// `trace` is non-null it records the execution; pass a spill-mode Trace
  /// (sim::TraceSink) to keep the recording itself bounded-memory on large
  /// sources.
  core::StreamRunResult run(core::JobSource& source,
                            const core::MachineConfig& machine,
                            metrics::StreamingFlowStats* stats = nullptr,
                            sim::Trace* trace = nullptr) {
    return simulate(source, machine, stats, trace);
  }

 private:
  /// The one simulation method.  Records every completion into `stats` (a
  /// local StreamingFlowStats when null) and returns that sink's result.
  virtual core::StreamRunResult simulate(core::JobSource& source,
                                         const core::MachineConfig& machine,
                                         metrics::StreamingFlowStats* stats,
                                         sim::Trace* trace) = 0;
};

}  // namespace pjsched::sched
