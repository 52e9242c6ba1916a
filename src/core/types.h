// Fundamental scheduling types mirroring the paper's Table 1:
//
//   r_i  arrival (release) time of job J_i    -> JobSpec::arrival
//   w_i  weight of J_i                        -> JobSpec::weight
//   c_i  completion time in a schedule        -> StreamRunResult::completion
//   F_i  flow time c_i - r_i                  -> StreamRunResult::job_flow
//   W_i  total work of J_i                    -> JobSpec::graph.total_work()
//   P_i  critical-path length of J_i          -> JobSpec::graph.critical_path()
//   m    number of processors                 -> MachineConfig::processors
//
// The objective max_i w_i F_i is StreamRunResult::max_weighted_flow; that
// struct (src/core/job_source.h) is the one result type a run returns.
//
// Times are in abstract *unit-work time*: a speed-1 processor performs one
// unit of work per unit of time; a speed-s processor performs one unit per
// 1/s time (the paper's "time step").  The workload layer maps units to
// seconds for reporting.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "src/dag/dag.h"

namespace pjsched::core {

using Time = double;
using JobId = std::uint32_t;

inline constexpr Time kNoTime = -1.0;

/// One online job: a sealed DAG plus its release time and weight.
struct JobSpec {
  Time arrival = 0.0;
  double weight = 1.0;  ///< w_i; 1.0 in the unweighted setting
  dag::Dag graph;
};

/// A scheduled change to the machine: at `time`, the processor count and
/// speed become (`processors`, `speed`).  Processor loss models fail-stop
/// worker failure; speed < 1 models machine-wide slowdown — both are the
/// adversarial inverse of the paper's speed augmentation, the regime where
/// max-flow-time guarantees are stressed.
struct MachineEvent {
  Time time = 0.0;
  unsigned processors = 1;  ///< new m (>= 1)
  double speed = 1.0;       ///< new s (> 0)
};

/// The machine the scheduler runs on.  `speed` is the resource-augmentation
/// factor s: the paper compares an s-speed algorithm against a 1-speed
/// optimum.
struct MachineConfig {
  unsigned processors = 1;  ///< m
  double speed = 1.0;       ///< s >= 1 in all of the paper's analyses
  /// Optional degradation timeline, applied in time order by the engines.
  /// Empty (the default) reproduces the paper's fault-free machine.  The
  /// step engine supports processor changes only (its step length is tied
  /// to the configured speed; see step_engine.h).
  std::vector<MachineEvent> degradation;
};

/// Aggregate engine counters, populated where meaningful.
struct EngineStats {
  std::uint64_t steal_attempts = 0;     ///< step engine: total steal attempts
  std::uint64_t successful_steals = 0;  ///< step engine: attempts that got a
                                        ///< node
  std::uint64_t admissions = 0;         ///< step engine: jobs popped from the
                                        ///< global queue
  std::uint64_t work_steps = 0;         ///< step engine: worker-steps spent
                                        ///< working
  std::uint64_t idle_steps = 0;         ///< worker-steps spent not working
                                        ///< (stealing/idling)
  std::uint64_t macro_jumps = 0;        ///< step engine: all-busy step runs
                                        ///< batched by the fast path (0 under
                                        ///< exact_steps)
  std::uint64_t decision_points = 0;    ///< event engine: allocation
                                        ///< recomputations
  std::uint64_t fast_decisions = 0;     ///< event engine: decision points
                                        ///< served by the incremental
                                        ///< virtual-work-clock path (0 under
                                        ///< exact or a dynamic policy)
  std::uint64_t arena_slots = 0;        ///< both engines: distinct job-arena
                                        ///< slots ever created — the
                                        ///< high-water mark of resident job
                                        ///< state (slots recycle as jobs
                                        ///< complete)
  std::uint64_t peak_live_jobs = 0;     ///< both engines: maximum jobs
                                        ///< simultaneously live (arrived, not
                                        ///< yet completed)
  double idle_processor_time = 0.0;     ///< event engine: processor-time
                                        ///< spent idle
};

/// A full online problem instance.
struct Instance {
  std::vector<JobSpec> jobs;

  std::size_t size() const { return jobs.size(); }

  /// Sum of all jobs' work.
  dag::Work total_work() const;
  /// max_i P_i — every schedule's max flow is at least max_i P_i / s... and
  /// OPT's (speed 1) is at least this.
  dag::Work max_critical_path() const;
  /// max_i W_i.
  dag::Work max_work() const;

  /// Throws std::invalid_argument unless every job has a sealed non-empty
  /// DAG, a finite non-negative arrival, and a finite positive weight.
  void validate() const;

  /// Indices of jobs sorted by (arrival, index).
  std::vector<JobId> arrival_order() const;
};

}  // namespace pjsched::core
