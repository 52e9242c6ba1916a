// One-call public API: name a scheduler, hand it an instance (or a job
// source) and a machine, get a StreamRunResult (with per-job vectors for
// an instance, without for a source).  This is the entry point examples
// and benches use; the individual scheduler classes in src/sched remain
// available for callers that need more control.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "src/core/bounds.h"
#include "src/core/job_source.h"
#include "src/core/parse.h"
#include "src/core/types.h"
#include "src/sched/scheduler.h"

namespace pjsched::core {

enum class SchedulerKind {
  kFifo,         ///< idealized FIFO (Section 3)
  kBwf,          ///< Biggest-Weight-First (Section 7)
  kAdmitFirst,   ///< work stealing, admit before stealing (k = 0)
  kStealKFirst,  ///< work stealing, admit after k failed steals
  kOptBound,     ///< the Section 6 simulated-OPT lower bound
  kLifo,         ///< baseline
  kSjf,          ///< clairvoyant baseline
  kRoundRobin,   ///< baseline
  kEqui,         ///< dynamic equipartition baseline (speedup-curves lit.)
};

struct SchedulerSpec {
  SchedulerKind kind = SchedulerKind::kFifo;
  unsigned steal_k = 16;    ///< used by kStealKFirst (paper's empirical k)
  std::uint64_t seed = 1;   ///< used by the work-stealing schedulers
  /// Work-stealing extension: admit the heaviest queued job instead of the
  /// oldest ("-bwf" suffix in names).
  bool admit_by_weight = false;
  /// Event-engine schedulers only: run the engine's reference path
  /// (EventEngineOptions::exact) instead of the incremental fast path
  /// ("-exact" suffix in names).  Results are bit-identical either way;
  /// this exists for cross-checks and benchmarking.
  bool exact_engine = false;
};

/// Instantiates the scheduler named by `spec`.
std::unique_ptr<sched::Scheduler> make_scheduler(const SchedulerSpec& spec);

/// Parses "fifo", "bwf", "admit-first", "steal-16-first", "opt", "lifo",
/// "sjf", "round-robin", "equi" (any k in "steal-<k>-first"; append "-bwf"
/// to a work-stealing name for weighted admission; append "-exact" to an
/// event-engine name for the engine's reference path).
/// Throws std::invalid_argument on unknown names.
SchedulerSpec parse_scheduler(const std::string& name);

/// Convenience: build-and-run in one call (see sched::Scheduler::run).
StreamRunResult run_scheduler(const Instance& instance,
                              const SchedulerSpec& spec,
                              const MachineConfig& machine,
                              sim::Trace* trace = nullptr);

/// Memory-bounded counterpart: streams `source` through the named
/// scheduler with O(live jobs) resident state (see sched::Scheduler::run).
/// Every scheduler streams, kOptBound included.  `trace`, if non-null,
/// records the execution; pass a spill-mode sim::Trace to keep the
/// recording itself bounded-memory.
StreamRunResult run_scheduler_streamed(
    JobSource& source, const SchedulerSpec& spec, const MachineConfig& machine,
    metrics::StreamingFlowStats* stats = nullptr, sim::Trace* trace = nullptr);

/// Streamed run plus the streamed lower bounds over the same job stream, in
/// one pass each.  `run_source` and `bound_source` must yield identical
/// streams (the twin-source contract: construct two sources from the same
/// distribution + config, or two InstanceSources over the same instance) —
/// the job counts are cross-checked and a mismatch throws
/// std::invalid_argument.  This is how large streamed experiments report
/// competitive ratios without materializing the instance: the bounds pass
/// holds O(1) state and the run pass O(live jobs).
struct StreamRatioResult {
  StreamRunResult run;     ///< the scheduler's streamed outcome
  LowerBoundSet bounds;    ///< streamed lower bounds over the same stream
  /// run.max_flow / bounds.combined — the streamed analogue of the
  /// materialized experiment's ratio column.  0 when the bound is 0.
  double ratio = 0.0;
  /// run.max_weighted_flow / bounds.weighted_combined; 0 when the bound is 0.
  double weighted_ratio = 0.0;
};

StreamRatioResult run_scheduler_streamed_with_bounds(
    JobSource& run_source, JobSource& bound_source, const SchedulerSpec& spec,
    const MachineConfig& machine, metrics::StreamingFlowStats* stats = nullptr,
    sim::Trace* trace = nullptr);

}  // namespace pjsched::core
