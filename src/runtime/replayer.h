// Replays a simulator Instance on the real threaded runtime: each job's
// DAG is submitted (via dag_executor) at its arrival time translated to
// wall-clock, with node work rendered as CPU spinning.  This is the
// end-to-end analogue of the paper's testbed experiment — the same
// workload object drives both the simulated comparison (Figure 2) and the
// real runtime.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "src/core/types.h"
#include "src/metrics/stats.h"
#include "src/runtime/thread_pool.h"

namespace pjsched::runtime {

/// Typed error for loading an instance replay file (the
/// workload/instance_io text format).  Callers that feed a daemon from
/// replay files must be able to tell a file that *ended early* (a short
/// read / partial final record — retry or refetch) from one whose content
/// is wrong (corrupt — quarantine it) and from plain I/O failure, so the
/// kind rides on the exception instead of being prose in a what() string.
class ReplayFileError : public std::runtime_error {
 public:
  enum class Kind {
    kIo,         ///< the file could not be opened or read
    kTruncated,  ///< EOF before the 'endinstance' trailer (short read)
    kCorrupt,    ///< a record present in the file failed to parse
  };

  ReplayFileError(Kind kind, std::string path, const std::string& detail)
      : std::runtime_error("replay file '" + path + "': " + detail),
        kind_(kind),
        path_(std::move(path)) {}

  Kind kind() const { return kind_; }
  const std::string& path() const { return path_; }

 private:
  Kind kind_;
  std::string path_;
};

inline const char* to_string(ReplayFileError::Kind k) {
  switch (k) {
    case ReplayFileError::Kind::kIo: return "io";
    case ReplayFileError::Kind::kTruncated: return "truncated";
    case ReplayFileError::Kind::kCorrupt: return "corrupt";
  }
  return "?";
}

/// Loads a replay file written by workload::write_instance, surfacing
/// failures as ReplayFileError: kIo when the file cannot be read,
/// kTruncated when EOF arrives before the 'endinstance' trailer (the
/// short-read case that previously surfaced as a generic parse error — or,
/// for a truncation that splits a numeric token, could silently yield a
/// partial final record), kCorrupt when a fully-present record is
/// malformed.  Trailing garbage after 'endinstance' is kCorrupt.
core::Instance load_replay_instance(const std::string& path);

struct ReplayOptions {
  /// Wall-clock nanoseconds of spinning per simulated work unit.
  double ns_per_unit = 1000.0;
  /// Multiplier applied to arrival gaps when mapping simulated time to
  /// wall-clock (1.0 = the same scale as ns_per_unit implies; larger
  /// values stretch the arrival process, lowering load).
  double arrival_scale = 1.0;
};

struct ReplayReport {
  metrics::Summary flow_seconds;   ///< wall-clock flow-time summary
                                   ///< (completed jobs only)
  double max_weighted_flow_seconds = 0.0;
  /// Terminal outcomes of every submitted job; under fault injection,
  /// completed < total.
  FlowRecorder::OutcomeCounts outcomes;
  PoolStats pool_stats;
  double wall_seconds = 0.0;       ///< total replay duration
};

/// Blocks until every job completes.  The pool must be freshly constructed
/// (its recorder aggregates everything submitted since creation).
ReplayReport replay_instance(ThreadPool& pool, const core::Instance& instance,
                             const ReplayOptions& options);

}  // namespace pjsched::runtime
