// The ready frontier of one executing job, kept in the plainest form:
// PackedDag's lockstep oracle.
//
// sim::PackedDag is the frontier the engines run; its semantics must be
// exactly this class's (tests/packed_dag_test.cc drives both through the
// same claim/complete schedules and compares every observable), and
// tests/dag_test.cc pins this class's own behaviour.  It reads the DAG only
// through dag::Dag's public accessors.
//
// The frontier is the only view of a DAG the non-clairvoyant schedulers
// get: which nodes are ready, and which become ready when a node completes.
// It never reveals work of unreached nodes, the node count remaining, or
// structure ahead of the frontier.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "src/dag/dag.h"

namespace pjsched::testutil {

class ReadyTracker {
 public:
  /// Binds to a sealed DAG.  Initially every source node is ready.
  explicit ReadyTracker(const dag::Dag& dag) : dag_(&dag) {
    if (!dag.sealed())
      throw std::invalid_argument("ReadyTracker: DAG must be sealed");
    const std::size_t n = dag.node_count();
    pending_preds_.resize(n);
    state_.assign(n, kBlocked);
    for (std::size_t v = 0; v < n; ++v)
      pending_preds_[v] = static_cast<std::uint32_t>(
          dag.in_degree(static_cast<dag::NodeId>(v)));
    for (const dag::NodeId s : dag.sources()) {
      ready_.push_back(s);
      state_[s] = kReady;
    }
  }

  /// Nodes currently ready (unblocked, not yet claimed).  Order is
  /// deterministic: ascending node id of insertion batches.
  std::span<const dag::NodeId> ready() const { return ready_; }
  std::size_t ready_count() const { return ready_.size(); }

  /// Removes one ready node from the frontier (the scheduler claimed it and
  /// will execute it).  `v` must currently be ready.
  void claim(dag::NodeId v) {
    if (v >= state_.size() || state_[v] != kReady)
      throw std::logic_error("ReadyTracker::claim: node is not ready");
    ready_.erase(std::find(ready_.begin(), ready_.end(), v));
    state_[v] = kClaimed;
  }

  /// Marks a claimed node as completed; appends any newly enabled
  /// successors to `out_enabled` (may be null) and to the ready frontier.
  /// Returns the number of successors enabled.
  std::size_t complete(dag::NodeId v,
                       std::vector<dag::NodeId>* out_enabled = nullptr) {
    if (v >= state_.size() || state_[v] != kClaimed)
      throw std::logic_error("ReadyTracker::complete: node was not claimed");
    state_[v] = kDone;
    ++completed_;
    std::size_t enabled = 0;
    for (const dag::NodeId w : dag_->successors(v)) {
      if (--pending_preds_[w] == 0) {
        state_[w] = kReady;
        ready_.push_back(w);
        if (out_enabled != nullptr) out_enabled->push_back(w);
        ++enabled;
      }
    }
    return enabled;
  }

  /// Number of nodes completed so far.
  std::size_t completed_count() const { return completed_; }

  /// True when every node of the DAG has completed.
  bool done() const { return completed_ == dag_->node_count(); }

 private:
  enum State : std::uint8_t { kBlocked, kReady, kClaimed, kDone };

  const dag::Dag* dag_;
  std::vector<std::uint32_t> pending_preds_;  // per node: unmet predecessors
  std::vector<dag::NodeId> ready_;
  std::vector<State> state_;
  std::size_t completed_ = 0;
};

}  // namespace pjsched::testutil
