// Dynamic-multithreaded job DAGs (paper Section 2).
//
// A job is a directed acyclic graph G whose nodes carry integer processing
// times (in abstract *work units*).  A node may execute only after all of its
// predecessors have completed; multiple ready nodes of the same job may run
// simultaneously on distinct processors.  Schedulers in this library never
// inspect the DAG beyond its ready frontier: the graph "unfolds dynamically"
// exactly as in the paper's non-clairvoyant model (sim::PackedDag holds the
// frontier the engines run).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace pjsched::sim {
class PackedDag;  // SoA execution layout (src/sim/packed_dag.h)
}  // namespace pjsched::sim

namespace pjsched::dag {

/// Index of a node within one job's DAG.
using NodeId = std::uint32_t;

/// Processing time of a node, in abstract integer work units.  One unit is
/// the amount of work an s-speed processor finishes in 1/s time (paper
/// Section 3, "time step").  The workload layer decides how many real
/// milliseconds one unit represents.
using Work = std::uint64_t;

inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

/// Immutable-after-construction DAG of sequential tasks.
///
/// Two ways in.  Build incrementally with add_node / add_edge, then call
/// seal(); or, when the successor lists are known up front, hand them to
/// the CSR constructor, which builds a sealed DAG directly.  Either way the
/// graph is validated (acyclicity, edge sanity) and frozen, and the two
/// build identical DAGs from the same edges; the scheduling engines require
/// a sealed DAG.  All query methods are safe on a sealed DAG and never
/// mutate, so one Dag can back many concurrent simulations.
class Dag {
 public:
  Dag() = default;

  /// Builds a sealed DAG from its successor lists in CSR form: node v has
  /// work[v] units and successors succ[succ_off[v] .. succ_off[v + 1]), in
  /// any order.  Throws std::invalid_argument on an empty graph, a
  /// zero-work node, offsets that are not n + 1 non-decreasing values from
  /// 0 to succ.size(), an out-of-range endpoint, a self loop, a duplicate
  /// edge or a cycle; std::length_error past the node-count limit.
  Dag(std::vector<Work> work, std::vector<std::uint32_t> succ_off,
      std::vector<NodeId> succ);

  /// Adds a node with the given processing time (must be >= 1: the machine
  /// model is built from unit-work steps, so zero-work nodes are banned).
  /// Returns the new node's id.  Only valid before seal().
  NodeId add_node(Work processing_time);

  /// Adds a precedence edge: `to` may not start until `from` completes.
  /// Duplicate edges are rejected in seal().  Only valid before seal().
  void add_edge(NodeId from, NodeId to);

  /// Validates and freezes the DAG.  Throws std::invalid_argument on a
  /// cycle, duplicate edge, or an empty graph.
  void seal();

  bool sealed() const { return sealed_; }

  std::size_t node_count() const { return work_.size(); }
  std::size_t edge_count() const { return edge_count_; }

  Work work_of(NodeId v) const { return work_[v]; }

  /// Successors / predecessors of a node (sealed only).
  std::span<const NodeId> successors(NodeId v) const;
  std::span<const NodeId> predecessors(NodeId v) const;

  std::size_t in_degree(NodeId v) const { return predecessors(v).size(); }
  std::size_t out_degree(NodeId v) const { return successors(v).size(); }

  /// Nodes with no predecessors, in node-id order (sealed only).
  std::span<const NodeId> sources() const { return sources_; }

  /// Total work W: sum of all node processing times (sealed only; O(1)).
  Work total_work() const { return total_work_; }

  /// Critical-path length P: the longest path weighted by processing times
  /// (sealed only; computed once when sealed, O(1) afterwards).  This is the
  /// paper's P_i, a lower bound on the job's execution time at speed 1.
  Work critical_path() const { return critical_path_; }

  /// Average parallelism W/P.
  double parallelism() const {
    return static_cast<double>(total_work_) /
           static_cast<double>(critical_path_);
  }

 private:
  // The arena's packed slot layout copies the CSR arrays wholesale instead
  // of re-deriving them through the per-node query API.
  friend class sim::PackedDag;

  // Validates the successor CSR, puts each node's successors in ascending
  // id order, derives the predecessor CSR, sources, W and P, and seals.
  void finalize();

  std::vector<Work> work_;
  // CSR adjacency: the successor half is built by seal() or handed to the
  // constructor; finalize() derives the predecessor half from it.
  std::vector<NodeId> succ_flat_, pred_flat_;
  std::vector<std::uint32_t> succ_off_, pred_off_;
  std::vector<std::pair<NodeId, NodeId>> pending_edges_;
  std::vector<NodeId> sources_;
  std::size_t edge_count_ = 0;
  Work total_work_ = 0;
  Work critical_path_ = 0;
  bool sealed_ = false;
};

}  // namespace pjsched::dag
