#include "src/dag/dag.h"

#include <algorithm>
#include <stdexcept>

namespace pjsched::dag {

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

  const std::size_t n = work_.size();
  std::sort(pending_edges_.begin(), pending_edges_.end());
  if (std::adjacent_find(pending_edges_.begin(), pending_edges_.end()) !=
      pending_edges_.end())
    throw std::invalid_argument("Dag::seal: duplicate edge");
  edge_count_ = pending_edges_.size();

  succ_off_.assign(n + 1, 0);
  pred_off_.assign(n + 1, 0);
  for (const auto& [u, v] : pending_edges_) {
    ++succ_off_[u + 1];
    ++pred_off_[v + 1];
  }
  for (std::size_t i = 0; i < n; ++i) {
    succ_off_[i + 1] += succ_off_[i];
    pred_off_[i + 1] += pred_off_[i];
  }
  succ_flat_.resize(edge_count_);
  pred_flat_.resize(edge_count_);
  {
    std::vector<std::uint32_t> sfill(succ_off_.begin(), succ_off_.end() - 1);
    std::vector<std::uint32_t> pfill(pred_off_.begin(), pred_off_.end() - 1);
    for (const auto& [u, v] : pending_edges_) {
      succ_flat_[sfill[u]++] = v;
      pred_flat_[pfill[v]++] = u;
    }
  }
  pending_edges_.clear();
  pending_edges_.shrink_to_fit();

  // Kahn topological pass: detects cycles, collects sources, and computes the
  // critical path (longest path by node weights) in one sweep.
  std::vector<std::uint32_t> indeg(n);
  for (std::size_t v = 0; v < n; ++v)
    indeg[v] = pred_off_[v + 1] - pred_off_[v];
  std::vector<NodeId> queue;
  std::vector<Work> dist(n, 0);  // longest path ending at v, inclusive of v
  total_work_ = 0;
  for (std::size_t v = 0; v < n; ++v) {
    total_work_ += work_[v];
    if (indeg[v] == 0) {
      queue.push_back(static_cast<NodeId>(v));
      sources_.push_back(static_cast<NodeId>(v));
      dist[v] = work_[v];
    }
  }
  std::size_t processed = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    ++processed;
    critical_path_ = std::max(critical_path_, dist[u]);
    for (std::uint32_t e = succ_off_[u]; e < succ_off_[u + 1]; ++e) {
      const NodeId v = succ_flat_[e];
      dist[v] = std::max(dist[v], dist[u] + work_[v]);
      if (--indeg[v] == 0) queue.push_back(v);
    }
  }
  if (processed != n)
    throw std::invalid_argument("Dag::seal: graph has a cycle");
  sealed_ = true;
}

std::span<const NodeId> Dag::successors(NodeId v) const {
  return {succ_flat_.data() + succ_off_[v], succ_off_[v + 1] - succ_off_[v]};
}

std::span<const NodeId> Dag::predecessors(NodeId v) const {
  return {pred_flat_.data() + pred_off_[v], pred_off_[v + 1] - pred_off_[v]};
}

}  // namespace pjsched::dag
