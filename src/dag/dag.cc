#include "src/dag/dag.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace pjsched::dag {

Dag::Dag(std::vector<Work> work, std::vector<std::uint32_t> succ_off,
         std::vector<NodeId> succ)
    : work_(std::move(work)),
      succ_flat_(std::move(succ)),
      succ_off_(std::move(succ_off)) {
  const std::size_t n = work_.size();
  if (n == 0) throw std::invalid_argument("Dag::Dag: empty DAG");
  if (n >= kInvalidNode) throw std::length_error("Dag::Dag: too many nodes");
  if (std::find(work_.begin(), work_.end(), Work{0}) != work_.end())
    throw std::invalid_argument("Dag::Dag: zero-work nodes are not allowed");
  if (succ_off_.size() != n + 1 || succ_off_.front() != 0 ||
      succ_off_.back() != succ_flat_.size() ||
      !std::is_sorted(succ_off_.begin(), succ_off_.end()))
    throw std::invalid_argument("Dag::Dag: malformed successor offsets");
  for (std::size_t u = 0; u < n; ++u) {
    for (std::uint32_t e = succ_off_[u]; e < succ_off_[u + 1]; ++e) {
      if (succ_flat_[e] >= n)
        throw std::invalid_argument("Dag::Dag: endpoint out of range");
      if (succ_flat_[e] == u)
        throw std::invalid_argument("Dag::Dag: self loop");
    }
  }
  finalize();
}

NodeId Dag::add_node(Work processing_time) {
  if (sealed_) throw std::logic_error("Dag::add_node: DAG already sealed");
  if (processing_time == 0)
    throw std::invalid_argument(
        "Dag::add_node: zero-work nodes are not allowed");
  if (work_.size() >= kInvalidNode)
    throw std::length_error("Dag::add_node: too many nodes");
  work_.push_back(processing_time);
  return static_cast<NodeId>(work_.size() - 1);
}

void Dag::add_edge(NodeId from, NodeId to) {
  if (sealed_) throw std::logic_error("Dag::add_edge: DAG already sealed");
  if (from >= work_.size() || to >= work_.size())
    throw std::invalid_argument("Dag::add_edge: endpoint out of range");
  if (from == to) throw std::invalid_argument("Dag::add_edge: self loop");
  pending_edges_.emplace_back(from, to);
}

void Dag::seal() {
  if (sealed_) throw std::logic_error("Dag::seal: already sealed");
  if (work_.empty()) throw std::invalid_argument("Dag::seal: empty DAG");

  // Counting sort of the edge list by source node into the successor CSR.
  // succ_off_[u] first counts, then (prefix-summed) ends u's slice; the
  // backward placement walks each end down to its slice's start and keeps
  // every slice in insertion order.
  const std::size_t n = work_.size();
  succ_off_.assign(n + 1, 0);
  for (const auto& [u, v] : pending_edges_) ++succ_off_[u];
  for (std::size_t u = 1; u <= n; ++u) succ_off_[u] += succ_off_[u - 1];
  succ_flat_.resize(pending_edges_.size());
  for (auto it = pending_edges_.rbegin(); it != pending_edges_.rend(); ++it)
    succ_flat_[--succ_off_[it->first]] = it->second;
  pending_edges_.clear();
  pending_edges_.shrink_to_fit();
  finalize();
}

void Dag::finalize() {
  const std::size_t n = work_.size();
  edge_count_ = succ_flat_.size();
  for (std::size_t u = 0; u < n; ++u) {
    const auto first = succ_flat_.begin() + succ_off_[u];
    const auto last = succ_flat_.begin() + succ_off_[u + 1];
    if (!std::is_sorted(first, last)) std::sort(first, last);
    if (std::adjacent_find(first, last) != last)
      throw std::invalid_argument("Dag::seal: duplicate edge");
  }

  // Predecessor CSR by the same counting sort, keyed by target node.  The
  // placement walks sources downwards, so every predecessor list comes out
  // in ascending id order.
  pred_off_.assign(n + 1, 0);
  for (const NodeId v : succ_flat_) ++pred_off_[v];
  for (std::size_t v = 1; v <= n; ++v) pred_off_[v] += pred_off_[v - 1];
  pred_flat_.resize(edge_count_);
  for (std::size_t u = n; u-- > 0;)
    for (std::uint32_t e = succ_off_[u + 1]; e-- > succ_off_[u];)
      pred_flat_[--pred_off_[succ_flat_[e]]] = static_cast<NodeId>(u);

  // Kahn topological pass: detects cycles, collects sources, and computes the
  // critical path (longest path by node weights) in one sweep.  Its three
  // arrays share one allocation.
  std::vector<Work> scratch(3 * n);
  Work* const dist = scratch.data();  // longest path ending at v, inclusive
  Work* const indeg = dist + n;       // v's predecessors not yet dequeued
  Work* const queue = indeg + n;      // nodes whose predecessors are done
  std::size_t tail = 0;
  total_work_ = 0;
  for (std::size_t v = 0; v < n; ++v) {
    total_work_ += work_[v];
    indeg[v] = pred_off_[v + 1] - pred_off_[v];
    if (indeg[v] == 0) {
      queue[tail++] = v;
      sources_.push_back(static_cast<NodeId>(v));
      dist[v] = work_[v];
    }
  }
  for (std::size_t head = 0; head < tail; ++head) {
    const auto u = static_cast<NodeId>(queue[head]);
    critical_path_ = std::max(critical_path_, dist[u]);
    for (std::uint32_t e = succ_off_[u]; e < succ_off_[u + 1]; ++e) {
      const NodeId v = succ_flat_[e];
      dist[v] = std::max(dist[v], dist[u] + work_[v]);
      if (--indeg[v] == 0) queue[tail++] = v;
    }
  }
  if (tail != n) throw std::invalid_argument("Dag::seal: graph has a cycle");
  sealed_ = true;
}

std::span<const NodeId> Dag::successors(NodeId v) const {
  return {succ_flat_.data() + succ_off_[v], succ_off_[v + 1] - succ_off_[v]};
}

std::span<const NodeId> Dag::predecessors(NodeId v) const {
  return {pred_flat_.data() + pred_off_[v], pred_off_[v + 1] - pred_off_[v]};
}

}  // namespace pjsched::dag
