// Common scheduler interface.  A Scheduler runs one policy over a
// core::JobSource: implementations wrap one of the two simulation engines
// (src/sim) with a policy, or — for OptLowerBound — the Section-6
// relaxation.  Schedulers are reusable: run() may be called many times.
//
// Each scheduler implements one private virtual, simulate(), which pulls
// the source with O(live jobs) resident state.  The two public run()
// overloads are non-virtual front ends over it:
//  * run(JobSource&, ...) returns exact extremes plus reservoir-backed
//    summary statistics (core::StreamRunResult);
//  * run(const Instance&, ...) validates the instance, streams it through
//    a core::InstanceSource, and returns the classic per-job
//    core::ScheduleResult.
// Streamed and materialized runs are therefore one code path, and a
// subclass overriding simulate() cannot hide either overload.
#pragma once

#include <string>
#include <vector>

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

  /// Human-readable name ("fifo", "steal-16-first", ...).
  virtual std::string name() const = 0;

  /// Simulates the instance to completion on the given machine.  If `trace`
  /// is non-null, records the execution for auditing.  Throws
  /// std::invalid_argument on an invalid instance or machine.
  core::ScheduleResult run(const core::Instance& instance,
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
    return simulate(source, machine, stats, trace, nullptr);
  }

 private:
  /// The one simulation method.  Records every completion into `stats` (a
  /// local StreamingFlowStats when null) and, when `completion` is
  /// non-null, resizes it to source.size() and stores each job's
  /// completion time at its streamed id (an id outside that range throws
  /// std::out_of_range).
  virtual core::StreamRunResult simulate(
      core::JobSource& source, const core::MachineConfig& machine,
      metrics::StreamingFlowStats* stats, sim::Trace* trace,
      std::vector<core::Time>* completion) = 0;
};

}  // namespace pjsched::sched
