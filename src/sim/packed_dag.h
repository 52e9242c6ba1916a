// Structure-of-arrays DAG slot layout for the recycling job arena.
//
// One per-slot object holds both the job's CSR structure and its ready
// frontier, in three contiguous grow-only array groups reused across the
// jobs that successively occupy the slot:
//
//   node work        work_[v]                     (copied from the Dag)
//   CSR successors   succ_off_[v] .. succ_off_[v+1] into succ_
//   in-degree state  pending_preds_[v], state_[v], ready_
//
// assign() copies a sealed dag::Dag into those arrays (std::vector::assign
// keeps capacity, so a recycled slot's steady state allocates nothing) and
// the source Dag can be freed immediately — streamed jobs no longer park a
// heap-backed Dag in the slot until retirement.  dag::Dag remains the
// build/serialize representation; this is purely the execution layout.
//
// Frontier semantics are *exactly* those of the plain reference frontier in
// tests/ready_tracker.h (tests/packed_dag_test.cc runs both in lockstep):
// the initial frontier is the sources in node-id order, complete() appends
// newly enabled successors in CSR order, and ready() presents the
// un-claimed nodes in the same sequence the reference's vector holds.  The
// representational difference is that claim() of the frontier head — the
// only claim the engines ever make — advances a head index instead of
// erasing from the vector front, turning the engines' hottest O(frontier)
// operation into O(1).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/dag/dag.h"

namespace pjsched::sim {

class PackedDag {
 public:
  PackedDag() = default;

  /// Packs `dag` (sealed, non-empty) into the slot arrays and restarts the
  /// frontier from the sources.  Reuses existing capacity; only a DAG
  /// larger than any previous occupant of this slot allocates.
  void assign(const dag::Dag& dag);

  /// Marks the slot unoccupied.  Keeps every array's capacity for the next
  /// occupant — the grow-only contract whose allocations
  /// tests/scaling_test.cc counts.
  void release() { bound_ = false; }

  /// True while a DAG is assigned (the slot is live).
  bool bound() const { return bound_; }

  std::size_t node_count() const { return nodes_; }
  dag::Work total_work() const { return total_work_; }
  dag::Work critical_path() const { return critical_path_; }
  dag::Work work_of(dag::NodeId v) const { return work_[v]; }

  /// Successors of `v` in the packed CSR (same order as the source Dag).
  std::span<const dag::NodeId> successors(dag::NodeId v) const {
    return {succ_.data() + succ_off_[v], succ_off_[v + 1] - succ_off_[v]};
  }

  /// Nodes currently ready, in the reference frontier's deterministic order.
  std::span<const dag::NodeId> ready() const {
    return {ready_.data() + ready_head_, ready_.size() - ready_head_};
  }
  std::size_t ready_count() const { return ready_.size() - ready_head_; }

  /// Removes one ready node from the frontier.  O(1) for the frontier head
  /// (the engines' only call pattern); O(frontier) otherwise.  `v` must
  /// currently be ready.
  void claim(dag::NodeId v);

  /// Marks a claimed node completed; appends newly enabled successors to
  /// the frontier (CSR order) and to `out_enabled` (may be null).  Returns
  /// the number of successors enabled.
  std::size_t complete(dag::NodeId v,
                       std::vector<dag::NodeId>* out_enabled = nullptr);

  std::size_t completed_count() const { return completed_; }
  bool done() const { return completed_ == nodes_; }

 private:
  std::size_t nodes_ = 0;
  dag::Work total_work_ = 0;
  dag::Work critical_path_ = 0;
  bool bound_ = false;

  std::vector<dag::Work> work_;             // [0, nodes_)
  std::vector<std::uint32_t> succ_off_;     // [0, nodes_]
  std::vector<dag::NodeId> succ_;           // CSR successor lists
  std::vector<std::uint32_t> pending_preds_;  // per node: unmet predecessors
  std::vector<std::uint8_t> state_;  // 0 blocked, 1 ready, 2 claimed, 3 done
  std::vector<dag::NodeId> ready_;   // frontier, consumed from ready_head_
  std::size_t ready_head_ = 0;
  std::size_t completed_ = 0;
};

}  // namespace pjsched::sim
