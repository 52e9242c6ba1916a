// Exact optimal maximum flow time for *tiny* instances, by exhaustive
// search — a validation tool, not a scheduler you deploy.
//
// The paper (and this library) compares algorithms against lower bounds on
// OPT because computing OPT is intractable in general.  For instances small
// enough, though, OPT can be computed exactly, which lets the test suite
// (a) sandwich every scheduler between bound <= OPT <= scheduler, and
// (b) measure how loose the Section-6 OPT-sim bound is
// (bench/bench_bound_tightness.cc).
//
// Restrictions (checked, throwing std::invalid_argument):
//   * every node has unit work, arrivals are non-negative integers,
//     machine speed is 1 (the discrete-time regime where an optimal
//     schedule can WLOG act at integer boundaries);
//   * at most kMaxTotalNodes nodes across all jobs (the state is one bit
//     per node).
//
// Method: a memoized dynamic program over states (t, completed-set),
// evaluated by depth-first recursion.  In each unit step the scheduler runs
// some subset of the ready nodes.  Running more nodes never hurts (unit
// nodes, free preemption), so only maximal subsets of size
// min(|ready|, m) are branched; a step with nothing ready jumps to the next
// arrival.  A state's value, the minimal achievable max flow *over jobs
// not yet finished*, is path-independent, so each state is evaluated once
// and cached.  Every branch of every state is evaluated: there is no
// incumbent and no pruning, and `state_limit` caps the number of states.
#pragma once

#include <cstdint>

#include "src/core/types.h"

namespace pjsched::sched {

inline constexpr std::size_t kMaxTotalNodes = 24;

struct ExactOptResult {
  double max_flow = 0.0;          ///< the optimal objective
  std::uint64_t states_explored = 0;
};

/// Computes the exact optimal max flow of `instance` on `m` unit-speed
/// processors.  `state_limit` caps the search (throws std::runtime_error
/// when exceeded — raise it for hard instances).
ExactOptResult exact_optimal_max_flow(const core::Instance& instance,
                                      unsigned m,
                                      std::uint64_t state_limit = 5'000'000);

}  // namespace pjsched::sched
