// Lower bounds on the optimal maximum (weighted) flow time of an instance.
// Every feasible 1-speed schedule satisfies  OPT >= each of these, so they
// serve as the denominator in empirical competitive-ratio measurements
// (the paper's Section 6 uses exactly the fully-parallelizable FIFO bound).
//
// The one computation is streaming: stream_lower_bounds consumes a
// JobSource in one pass — resident state is the current job plus a handful
// of scalars, so the bounds scale to the 10^6+-job sources the engines
// stream (run_scheduler_streamed_with_bounds in core/run.h reports the
// competitive ratio without ever materializing).  lower_bounds(Instance)
// runs that pass over an InstanceSource, which yields jobs in arrival
// order — the order the FIFO-frontier recurrence needs; every other bound
// is a running max of per-job terms.
#pragma once

#include <cstddef>

#include "src/core/job_source.h"
#include "src/core/types.h"

namespace pjsched::core {

/// Every lower bound this library computes, from one pass over a source.
struct LowerBoundSet {
  std::size_t jobs = 0;  ///< jobs the pass consumed
  /// max_i P_i — no scheduler finishes a job faster than its critical path
  /// at speed 1 (paper Proposition 2.1 / Lemma 3.2's OPT >= P_i argument).
  double span = 0.0;
  double work = 0.0;  ///< max_i W_i / m: a job spread across all m processors
  /// The paper's simulated-OPT bound (Section 6): each job fully
  /// parallelizable with length W_i/m, scheduled FIFO on one machine.
  /// Dominates `work` and captures queueing backlog.
  double opt_sim = 0.0;
  double combined = 0.0;  ///< max of the three above: the tightest bound
  /// Weighted variants for the BWF experiments, bounding
  /// OPT = min max_i w_i F_i: max_i w_i P_i, max_i w_i W_i / m, and their max.
  double weighted_span = 0.0;
  double weighted_work = 0.0;
  double weighted_combined = 0.0;
};

/// One-pass streamed computation of every bound; consumes `source` to
/// exhaustion.  Throws std::invalid_argument when m == 0.
LowerBoundSet stream_lower_bounds(JobSource& source, unsigned m);

/// stream_lower_bounds over an InstanceSource: every bound of a
/// materialized instance in one pass.  Throws std::invalid_argument when
/// m == 0.
LowerBoundSet lower_bounds(const Instance& instance, unsigned m);

}  // namespace pjsched::core
