#include "src/sim/packed_dag.h"

#include <algorithm>
#include <stdexcept>

namespace pjsched::sim {

void PackedDag::assign(const dag::Dag& dag) {
  if (!dag.sealed())
    throw std::invalid_argument("PackedDag::assign: DAG must be sealed");
  nodes_ = dag.node_count();
  total_work_ = dag.total_work_;
  critical_path_ = dag.critical_path_;
  work_.assign(dag.work_.begin(), dag.work_.end());
  succ_off_.assign(dag.succ_off_.begin(), dag.succ_off_.end());
  succ_.assign(dag.succ_flat_.begin(), dag.succ_flat_.end());
  pending_preds_.resize(nodes_);
  for (std::size_t v = 0; v < nodes_; ++v)
    pending_preds_[v] = dag.pred_off_[v + 1] - dag.pred_off_[v];
  state_.assign(nodes_, 0);
  ready_.assign(dag.sources_.begin(), dag.sources_.end());
  for (const dag::NodeId s : dag.sources_) state_[s] = 1;
  ready_head_ = 0;
  completed_ = 0;
  bound_ = true;
}

void PackedDag::claim(dag::NodeId v) {
  if (v >= nodes_ || state_[v] != 1)
    throw std::logic_error("PackedDag::claim: node is not ready");
  if (ready_[ready_head_] == v) {
    // The engines always claim the frontier head; consuming it by index
    // leaves the remaining sequence identical to the reference frontier's
    // erase-from-front, without the O(frontier) shift.
    ++ready_head_;
    if (ready_head_ == ready_.size()) {
      ready_.clear();
      ready_head_ = 0;
    }
  } else {
    const auto it =
        std::find(ready_.begin() + static_cast<std::ptrdiff_t>(ready_head_),
                  ready_.end(), v);
    ready_.erase(it);
  }
  state_[v] = 2;
}

std::size_t PackedDag::complete(dag::NodeId v,
                                std::vector<dag::NodeId>* out_enabled) {
  if (v >= nodes_ || state_[v] != 2)
    throw std::logic_error("PackedDag::complete: node was not claimed");
  state_[v] = 3;
  ++completed_;
  std::size_t enabled = 0;
  const std::uint32_t end = succ_off_[v + 1];
  for (std::uint32_t e = succ_off_[v]; e < end; ++e) {
    const dag::NodeId w = succ_[e];
    if (--pending_preds_[w] == 0) {
      state_[w] = 1;
      ready_.push_back(w);
      if (out_enabled != nullptr) out_enabled->push_back(w);
      ++enabled;
    }
  }
  return enabled;
}

}  // namespace pjsched::sim
