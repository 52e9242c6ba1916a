// Recycling per-run job arena shared by the two simulation engines.
//
// Both engines used to key every per-job structure by JobId, sized to the
// whole instance — O(all jobs) resident state even though only the jobs
// between arrival and completion are ever touched.  The arena replaces that
// indexing scheme: a live job occupies a dense *slot*, slots are retired and
// reused as jobs complete (LIFO freelist, so the hottest slot's caches are
// reused first).  Resident state is therefore O(peak live jobs), which for
// a stable system is O(1) in the instance length — the property
// tests/scaling_test.cc checks by counting at 10^4 and 10^5 jobs.
//
// Each slot's DAG lives in a PackedDag: node work, CSR successor lists, and
// the in-degree/ready frontier state packed into contiguous grow-only
// arrays (src/sim/packed_dag.h).  acquire() copies the job's sealed
// dag::Dag into those arrays and drops the source immediately — a streamed
// job's heap-backed Dag is freed at admission, not retirement — and a
// recycled slot's steady state allocates nothing, since every array reuses
// the capacity left by previous occupants.  The engines' ready-frontier and
// completion inner loops run entirely on the packed layout; dag::Dag stays
// the build/serialize representation.
//
// Engine-specific per-slot arrays (completion coordinates, deques, ...)
// live in the engines, indexed by the slot ids this class hands out;
// `size()` never shrinks, so grow-only parallel arrays stay in sync by
// resizing whenever acquire() returns a fresh slot.
//
// acquire() also centralizes the per-job validation that Instance::validate
// performed up front for materialized runs (sealed non-empty DAG,
// non-negative arrival, positive weight) and enforces the JobSource
// contract that arrivals be non-decreasing.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "src/core/job_source.h"
#include "src/core/types.h"
#include "src/sim/packed_dag.h"

namespace pjsched::sim {

class JobArena {
 public:
  /// One live job's engine-independent state.  Slot references are stable:
  /// slots live in a deque and are never destroyed until the arena is.
  struct Slot {
    core::JobId id = 0;
    core::Time arrival = 0.0;
    double weight = 1.0;
    /// The packed DAG + ready frontier in play; unbound while the slot is
    /// free (its arrays keep their capacity for the next occupant).
    PackedDag graph;
  };

  /// Claims a slot (recycling a retired one when available) for `job`,
  /// packing its DAG into the slot's arrays; the job's own DAG storage is
  /// released when `job` goes out of scope.  Validates the job and throws
  /// std::invalid_argument on an unsealed/empty DAG, negative arrival,
  /// non-positive weight, out-of-order arrival, or a duplicate live id.
  /// Returns the slot index.
  std::uint32_t acquire(core::StreamedJob&& job);

  /// Releases a live slot: marks its packed DAG unbound (the arrays keep
  /// their capacity for the next occupant) and recycles the index.
  void retire(std::uint32_t slot);

  Slot& operator[](std::uint32_t slot) { return slots_[slot]; }
  const Slot& operator[](std::uint32_t slot) const { return slots_[slot]; }

  /// Slots ever created (== the engines' parallel-array length).  Monotone.
  std::size_t size() const { return slots_.size(); }

  std::size_t live() const { return live_; }
  std::uint64_t peak_live() const { return peak_live_; }

  /// Slot of a live job.  Throws std::logic_error for ids not currently
  /// live (the engines only look up jobs they know to be active).
  std::uint32_t slot_of(core::JobId id) const;

 private:
  std::deque<Slot> slots_;
  std::vector<std::uint32_t> free_;  // retired slot indices, LIFO
  std::unordered_map<core::JobId, std::uint32_t> slot_of_;
  std::size_t live_ = 0;
  std::uint64_t peak_live_ = 0;
  core::Time last_arrival_ = 0.0;
  bool any_acquired_ = false;
};

}  // namespace pjsched::sim
