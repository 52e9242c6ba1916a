// Independent recomputations of a sealed DAG's total work and critical
// path: the oracles that tests check Dag::seal()'s cached W and P against.
//
// They read the DAG only through dag::Dag's public accessors and share no
// code with seal(): the critical path is pulled from each node's
// predecessors, where seal() pushes it to successors.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "src/dag/dag.h"

namespace pjsched::testutil {

/// Recomputes total work from scratch (oracle for Dag::total_work()).
inline dag::Work compute_total_work(const dag::Dag& d) {
  if (!d.sealed())
    throw std::invalid_argument("compute_total_work: DAG not sealed");
  dag::Work w = 0;
  for (std::size_t v = 0; v < d.node_count(); ++v)
    w += d.work_of(static_cast<dag::NodeId>(v));
  return w;
}

/// Recomputes the critical-path length from scratch (oracle for
/// Dag::critical_path()).
inline dag::Work compute_critical_path(const dag::Dag& d) {
  if (!d.sealed())
    throw std::invalid_argument("compute_critical_path: DAG not sealed");
  const std::size_t n = d.node_count();
  std::vector<std::uint32_t> indeg(n);
  std::vector<dag::NodeId> order;  // Kahn: a topological order
  for (std::size_t v = 0; v < n; ++v) {
    const auto id = static_cast<dag::NodeId>(v);
    indeg[v] = static_cast<std::uint32_t>(d.in_degree(id));
    if (indeg[v] == 0) order.push_back(id);
  }
  for (std::size_t i = 0; i < order.size(); ++i)
    for (const dag::NodeId v : d.successors(order[i]))
      if (--indeg[v] == 0) order.push_back(v);

  std::vector<dag::Work> dist(n, 0);  // longest path ending at v, inclusive
  dag::Work best = 0;
  for (const dag::NodeId u : order) {
    dag::Work before = 0;
    for (const dag::NodeId p : d.predecessors(u))
      before = std::max(before, dist[p]);
    dist[u] = before + d.work_of(u);
    best = std::max(best, dist[u]);
  }
  return best;
}

}  // namespace pjsched::testutil
