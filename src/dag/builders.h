// Constructors for the DAG shapes used throughout the paper and its
// evaluation: serial chains, fork-join / parallel-for jobs (Section 6's
// workloads are "parallelized using parallel for loops"), divide-and-conquer
// trees, random layered DAGs for property tests, and the Section 5
// lower-bound "star" job (one root node preceding c independent tasks).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/dag/dag.h"
#include "src/sim/rng.h"

namespace pjsched::dag {

/// A chain of `length` nodes, each with `work_per_node` units; fully
/// sequential (P = W = length * work_per_node).
Dag serial_chain(std::size_t length, Work work_per_node);

/// A single node of the given size.
Dag single_node(Work work);

/// Parallel-for job: a root node, `grains` independent body nodes, and a
/// join node.  `body_work` units per grain.  This is the canonical shape of
/// the paper's evaluation jobs.  W = root + join + grains*body_work,
/// P = root + join + body_work.
Dag parallel_for_dag(std::size_t grains, Work body_work, Work root_work = 1,
                     Work join_work = 1);

/// Like parallel_for_dag but with per-grain work supplied by the caller via
/// a callback (grain index -> work units); used to build skewed loops.
/// Every generated workload job is built here (make_parallel_for_job), so
/// the successor lists are written straight into the CSR constructor's
/// arrays at their exact sizes: node 0 is the root, nodes 1..grains the
/// bodies, node grains + 1 the join.
template <typename F>
Dag parallel_for_dag_fn(std::size_t grains, F&& body_work_of,
                        Work root_work = 1, Work join_work = 1) {
  std::vector<Work> work;
  work.reserve(grains + 2);
  work.push_back(root_work);
  for (std::size_t g = 0; g < grains; ++g) work.push_back(body_work_of(g));
  work.push_back(join_work);
  // The root's slice [0, grains) lists the bodies; body b's slice is the
  // single edge to the join at grains + b - 1; the join's slice is empty.
  const auto g = static_cast<std::uint32_t>(grains);
  std::vector<std::uint32_t> succ_off(grains + 3, 2 * g);
  std::vector<NodeId> succ(2 * grains, g + 1);
  succ_off[0] = 0;
  for (std::uint32_t b = 1; b <= g; ++b) {
    succ[b - 1] = b;
    succ_off[b] = g + b - 1;
  }
  return Dag(std::move(work), std::move(succ_off), std::move(succ));
}

/// Balanced binary fork-join (divide-and-conquer) tree of the given depth:
/// 2^depth leaves of `leaf_work` units each, with unit-work internal fork and
/// join nodes.  P = Theta(depth), W = Theta(2^depth * leaf_work).
Dag divide_and_conquer(std::size_t depth, Work leaf_work);

/// The Section 5 lower-bound job: one unit-work root node that is the sole
/// predecessor of `children` independent unit-work tasks.  Total work is
/// children + 1 and critical path is 2; executed sequentially it takes
/// children + 1 steps.
Dag star(std::size_t children);

/// Options for random_layered.
struct RandomLayeredOptions {
  std::size_t layers = 4;           ///< number of layers, >= 1
  std::size_t min_width = 1;        ///< min nodes per layer
  std::size_t max_width = 4;        ///< max nodes per layer
  Work min_work = 1;                ///< min node processing time
  Work max_work = 8;                ///< max node processing time
  double edge_probability = 0.5;    ///< probability of an edge between
                                    ///< consecutive-layer node pairs
};

/// Options for random_fork_join.
struct RandomForkJoinOptions {
  std::size_t max_depth = 4;       ///< recursion depth limit
  double fork_probability = 0.6;   ///< chance an inner node forks again
  std::size_t min_fanout = 2;
  std::size_t max_fanout = 3;
  Work min_work = 1;
  Work max_work = 6;
};

/// Random *series-parallel* fork-join program, the shape of recursive
/// spawn/sync code in Cilk-style runtimes: each position either becomes a
/// leaf task or forks into a fan of recursively generated subprograms
/// bracketed by fork/join nodes.  Always sealed; deterministic given rng.
Dag random_fork_join(sim::Rng& rng, const RandomForkJoinOptions& opt);

/// Random layered DAG for property tests: nodes in `layers` ranks, edges only
/// from rank i to rank i+1, each present with `edge_probability`.  Every
/// layer-(i+1) node is guaranteed at least one predecessor so the DAG depth
/// is genuinely `layers`.  Deterministic given `rng` state.
Dag random_layered(sim::Rng& rng, const RandomLayeredOptions& opt);

}  // namespace pjsched::dag
