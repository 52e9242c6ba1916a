// Per-job flow-time accounting for the threaded runtime: submission and
// completion wall-clock timestamps, and summary statistics matching the
// quantities the paper's Figure 2 reports (max flow time; we add mean and
// weighted max).
//
// Every job lands here with its terminal outcome.  Flow-time statistics
// (max / weighted max / summary) cover *completed* jobs only — a failed or
// deadline-expired job has no meaningful flow time and must not
// contaminate the objective — but every outcome is counted and visible
// through outcome_counts(), so degraded runs are auditable.
//
// Sharded for the hot path: writes land in per-shard statistics (the
// ThreadPool gives each worker its own shard), each behind its own
// interference-padded mutex, so concurrent job completions on different
// workers never contend on a global lock.
// Readers merge the shards on demand — reads are report-time operations,
// writes are the per-job hot path, and the trade goes to the writer.
//
// Memory is bounded: a shard keeps its counts, exact max / weighted max,
// and a reservoir of at most kFlowReservoir flow samples, so a pool that
// runs for days (the daemon's) does not grow with the jobs it completes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/metrics/stats.h"
#include "src/metrics/streaming_stats.h"
#include "src/runtime/annotations.h"
#include "src/runtime/interference.h"
#include "src/runtime/job.h"
#include "src/runtime/mutex.h"

namespace pjsched::runtime {

class FlowRecorder {
 public:
  /// Per-terminal-outcome job counts.
  struct OutcomeCounts {
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t deadline_expired = 0;

    std::uint64_t total() const {
      return completed + failed + deadline_expired;
    }
  };

  /// A recorder with `shards` independent write buffers.  Any shard index
  /// in [0, shards) may be written from any thread (each shard has its own
  /// lock); distinct threads writing distinct shards never contend.
  explicit FlowRecorder(std::size_t shards = 1);

  /// Registers a finished job in `shard` (thread-safe; the ThreadPool
  /// passes the retiring worker's index).  The outcome is read from the
  /// job; only kCompleted jobs contribute to the flow statistics.
  void record(const Job& job, std::size_t shard);

  /// Testing/embedding hook: record a terminal outcome directly.  A
  /// completed job's flow must be >= 0 (std::logic_error otherwise).
  void record(double flow_seconds, double weight, JobOutcome outcome,
              std::size_t shard);

  /// Jobs recorded so far, any outcome (merged over shards).
  std::size_t count() const;

  OutcomeCounts outcome_counts() const;

  /// Flow samples a shard keeps.  Up to this many completions per shard,
  /// flows_seconds() holds every completed job's flow and summary() is
  /// exact; beyond it flows_seconds() is a uniform sample of each shard,
  /// and so are summary()'s stddev and quantiles.
  static constexpr std::size_t kFlowReservoir = 32768;

  /// Snapshot of completed jobs' flow times so far, in seconds (see
  /// kFlowReservoir).  Merge order is shard-major and NOT submission
  /// order; the flow statistics below are order-independent.
  std::vector<double> flows_seconds() const;

  /// max_i F_i over completed jobs, seconds (exact).
  double max_flow_seconds() const;
  /// max_i w_i F_i over completed jobs, seconds (exact).
  double max_weighted_flow_seconds() const;
  /// Flow summary over completed jobs; count, min, max and mean exact.
  metrics::Summary summary() const;

 private:
  struct alignas(kDestructiveInterference) Shard {
    mutable Mutex mu;
    // Completed jobs only; the reservoir grows on demand.
    metrics::StreamingFlowStats flows PJSCHED_GUARDED_BY(mu) =
        metrics::StreamingFlowStats({.reservoir = kFlowReservoir});
    OutcomeCounts counts PJSCHED_GUARDED_BY(mu);
  };

  std::vector<Shard> shards_;  // sized at construction, never resized
};

}  // namespace pjsched::runtime
