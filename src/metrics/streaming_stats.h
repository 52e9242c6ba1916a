// Bounded-memory flow-time accounting: the one place a run's completions
// become its StreamRunResult.  Every engine, and the OPT bound, reports
// each finished job once, through record().  The extremes the paper's
// objective cares about (max flow, max weighted flow and its argmax,
// makespan) plus count/min/mean are maintained *exactly*, variance via
// Welford's recurrence, and the quantiles via a fixed-size uniform
// reservoir (Vitter's Algorithm R, seeded and deterministic).  While the
// sample count is within the reservoir capacity the reservoir holds every
// sample, so the reported quantiles equal metrics::summarize's bit for bit
// — the contract the streamed-vs-materialized cross-check tests pin; beyond
// it they are unbiased estimates from a uniform subsample.  Per-job vectors
// (c_i and F_i by id) are kept only on request (Options::per_job).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/job_source.h"
#include "src/core/types.h"
#include "src/metrics/stats.h"
#include "src/sim/rng.h"

namespace pjsched::metrics {

class StreamingFlowStats {
 public:
  struct Options {
    /// Reservoir capacity: quantiles are exact up to this many samples and
    /// estimated from a uniform subsample beyond.  Memory is O(reservoir).
    std::size_t reservoir = 4096;
    /// Seed for the reservoir's replacement draws.  Fixed default so a
    /// streamed run is reproducible from its configuration alone.
    std::uint64_t seed = 0x5eedf10775a75ULL;
    /// Per-id capture: when > 0, record() also stores each job's completion
    /// and flow at its id in vectors of this size, which result() returns
    /// as StreamRunResult::completion and ::job_flow (an id at or above it
    /// throws std::out_of_range).  0 keeps nothing.  Runs over an Instance
    /// set it to the instance size; streamed runs leave it 0.
    std::size_t per_job = 0;
  };

  StreamingFlowStats() : StreamingFlowStats(Options{}) {}
  explicit StreamingFlowStats(const Options& options);

  /// Records one completed job.  Throws std::logic_error if `completion`
  /// precedes `arrival`.
  void record(core::JobId id, double arrival, double weight,
              double completion);

  std::size_t count() const { return count_; }
  double max_flow() const { return max_flow_; }
  double max_weighted_flow() const { return max_weighted_flow_; }
  /// Job attaining the maximum weighted flow; smallest id on exact ties,
  /// whatever order completions arrive in.  0 when count() == 0.
  core::JobId argmax_flow() const { return argmax_flow_; }
  double min_flow() const { return count_ == 0 ? 0.0 : min_flow_; }
  double mean_flow() const;
  double makespan() const { return makespan_; }

  /// True while the reservoir still holds every recorded sample (quantiles
  /// are then exact, not estimates).
  bool quantiles_exact() const { return count_ <= samples_.capacity_limit_; }

  /// Summary over everything recorded so far: count/min/max/mean exact,
  /// stddev from Welford's recurrence, p50/p90/p99 from the reservoir.
  /// Zero samples yield the all-zero Summary (the explicit empty contract:
  /// streamed runs can legitimately complete zero jobs).
  Summary summary() const;

  /// The result of a run whose completions were recorded here: every
  /// StreamRunResult field derives from these statistics (the per-job
  /// vectors from the per-id capture, empty without it), plus the run's
  /// name and engine counters.  Both engines and the OPT bound build their
  /// results here, so every scheduler fills the fields the same way.
  core::StreamRunResult result(std::string scheduler_name,
                               const core::EngineStats& stats) const;

  /// The current reservoir contents (unordered).
  const std::vector<double>& reservoir() const { return samples_.values; }

 private:
  struct Reservoir {
    std::vector<double> values;
    std::size_t capacity_limit_ = 0;
  };

  std::size_t count_ = 0;
  double max_flow_ = 0.0;
  double max_weighted_flow_ = 0.0;
  core::JobId argmax_flow_ = 0;
  double min_flow_ = 0.0;
  double makespan_ = 0.0;
  double sum_flow_ = 0.0;
  double welford_mean_ = 0.0;
  double welford_m2_ = 0.0;
  Reservoir samples_;
  sim::Rng rng_;
  std::vector<double> completion_;  // per-id capture; empty when off
  std::vector<double> job_flow_;

  friend class StreamingFlowStatsTestPeer;
};

}  // namespace pjsched::metrics
