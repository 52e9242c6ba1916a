// Streaming instance sources: yield jobs one at a time, in arrival order,
// without materializing the whole job list.
//
// A JobSource is the memory-bounded counterpart of Instance.  The engines
// pull jobs lazily as simulated time reaches their arrivals, move each
// job's DAG into a recycling per-run arena, and free it when the job's
// last node finishes — so a 10^6-job run holds O(live jobs) state instead
// of O(all jobs).  Instance is one implementation (InstanceSource borrows
// the already-materialized DAGs); the workload generators are another
// (workload::GeneratedJobSource draws each job on demand with the same
// per-job RNG derivation as generate_instance, so streamed and
// materialized runs of the same configuration are bit-identical — see
// docs/simulation-model.md, "Scaling to 10^6+ jobs").
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "src/core/types.h"
#include "src/metrics/stats.h"

namespace pjsched::core {

/// One job as a source yields it: identity, release time, weight, and the
/// sealed DAG — either owned (`graph`, moved into the engine's arena) or
/// borrowed from storage that outlives the run (`borrowed`, e.g. an
/// Instance's job list).
struct StreamedJob {
  JobId id = 0;  ///< dense identity; names the job in completions/traces
  Time arrival = 0.0;
  double weight = 1.0;
  dag::Dag graph;                      ///< owned DAG; used when borrowed == nullptr
  const dag::Dag* borrowed = nullptr;  ///< non-owned DAG (outlives the run)

  const dag::Dag& dag() const { return borrowed != nullptr ? *borrowed : graph; }
};

/// Pull interface over an online instance in arrival order.  The base class
/// keeps a one-job lookahead so engines can peek the next arrival time
/// (idle jumps, admission loops) without consuming it; implementations
/// override produce().  Arrivals must be non-decreasing — the engines
/// enforce this and throw std::invalid_argument on violation.
class JobSource {
 public:
  virtual ~JobSource() = default;

  /// Total number of jobs this source will yield (all in-repo sources know
  /// it up front; it sizes per-id result vectors for materialized runs).
  virtual std::size_t size() const = 0;

  /// True once every job has been taken.
  bool done() { fill(); return exhausted_; }

  /// Arrival time of the next job; only valid when !done().
  Time next_arrival() { fill(); return lookahead_.arrival; }

  /// Consumes and returns the next job; only valid when !done().
  StreamedJob take() {
    fill();
    have_ = false;
    return std::move(lookahead_);
  }

 protected:
  /// Yields the next job into `out`; returns false when exhausted.
  virtual bool produce(StreamedJob& out) = 0;

 private:
  void fill() {
    if (have_ || exhausted_) return;
    if (produce(lookahead_))
      have_ = true;
    else
      exhausted_ = true;
  }

  StreamedJob lookahead_;
  bool have_ = false;
  bool exhausted_ = false;
};

/// Streams an already-materialized Instance in arrival order, borrowing its
/// DAGs.  StreamedJob::id is the job's index in the Instance, so per-id
/// results line up with Instance::jobs — this is how
/// sched::Scheduler::run(Instance) runs, making streamed and materialized
/// execution one code path.  The Instance must outlive the source and the
/// run.
class InstanceSource final : public JobSource {
 public:
  explicit InstanceSource(const Instance& instance);

  std::size_t size() const override { return instance_->size(); }

 protected:
  bool produce(StreamedJob& out) override;

 private:
  const Instance* instance_;
  std::vector<JobId> order_;
  std::size_t next_ = 0;
};

/// Drains `source` into a materialized Instance (jobs indexed by their
/// streamed id, which must be dense in [0, size)).  The memory-unbounded
/// inverse of InstanceSource; generate_instance is implemented with it.
Instance materialize(JobSource& source);

/// Outcome of a streamed run: exact extremes plus bounded-memory summary
/// statistics — the streaming counterpart of ScheduleResult, with
/// O(reservoir) instead of O(all jobs) state behind it.
///
/// max_flow, max_weighted_flow, argmax_flow (smallest id on weighted-flow
/// ties), and makespan are exact and bit-identical to what
/// ScheduleResult::finalize computes for the same schedule.  mean_flow is
/// exact up to summation order (completion order here, id order there).
/// flow's quantiles come from StreamingFlowStats' reservoir: exact while
/// jobs <= the reservoir capacity, an unbiased estimate beyond.
struct StreamRunResult {
  std::string scheduler_name;
  std::size_t jobs = 0;  ///< jobs completed (0 is legal: an empty source)
  Time max_flow = 0.0;
  Time max_weighted_flow = 0.0;
  Time mean_flow = 0.0;
  Time makespan = 0.0;
  JobId argmax_flow = 0;        ///< job attaining max_i w_i F_i
  metrics::Summary flow;        ///< reservoir-backed order statistics
  bool flow_quantiles_exact = false;  ///< reservoir held every sample
  EngineStats stats;
};

}  // namespace pjsched::core
