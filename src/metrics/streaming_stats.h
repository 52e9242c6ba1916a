// Bounded-memory flow-time accounting for streamed runs.
//
// A materialized run keeps every job's flow time and summarizes at the end
// (metrics::summarize) — O(all jobs) memory.  StreamingFlowStats is the
// O(1)-per-sample replacement every run records into, and the source of
// its StreamRunResult: the extremes the paper's objective cares about (max
// flow, max weighted flow and its argmax, makespan) plus count/min/mean
// are maintained *exactly*, variance via Welford's recurrence, and the
// quantiles via a fixed-size uniform reservoir (Vitter's Algorithm R,
// seeded and deterministic).  While the sample count is within the
// reservoir capacity the reservoir holds every sample, so the reported
// quantiles equal metrics::summarize's bit for bit — the contract the
// streamed-vs-materialized cross-check tests pin; beyond it they are
// unbiased estimates from a uniform subsample.
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
  };

  StreamingFlowStats() : StreamingFlowStats(Options{}) {}
  explicit StreamingFlowStats(const Options& options);

  /// Records one completed job.  Throws std::logic_error if `completion`
  /// precedes `arrival` (mirroring ScheduleResult::finalize's check).
  void record(core::JobId id, double arrival, double weight,
              double completion);

  std::size_t count() const { return count_; }
  double max_flow() const { return max_flow_; }
  double max_weighted_flow() const { return max_weighted_flow_; }
  /// Job attaining the maximum weighted flow; smallest id on exact ties —
  /// the same job ScheduleResult::finalize selects.  0 when count() == 0.
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
  /// StreamRunResult field derives from these statistics, plus the run's
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

  friend class StreamingFlowStatsTestPeer;
};

}  // namespace pjsched::metrics
