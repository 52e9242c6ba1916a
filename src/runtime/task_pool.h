// Per-worker slab/freelist recycling for Task objects — the allocator half
// of the runtime hot path (the callable half is inline_fn.h).
//
// Before this, every `TaskContext::spawn` and `ThreadPool::submit` did a
// `new Task` and the executing worker a `delete`: one allocator round-trip
// per task, serialized on the allocator's internal locks once several
// workers churn.  A Cilk-style runtime amortizes that away; so do we:
//
//   * each worker owns a TaskPool: allocation pops a plain (unsynchronized)
//     freelist; exhaustion first drains the reclaim list, then carves a new
//     block of kBlockSize slots in one heap allocation;
//   * a task is usually freed by the worker that allocated it (local pop or
//     a steal executed to completion) — that free is a plain freelist push;
//   * a task freed on a *different* thread (a stolen task, or a job's root,
//     which its submitter allocated) is pushed onto the owning pool's
//     `reclaim_` Treiber stack with one CAS; the owner drains it wholesale
//     (a single exchange) the next time its freelist runs dry.  The drain
//     is the only pop, so the stack has no ABA window.
//
// Thread contract: `allocate` is owner-only (the ThreadPool's external
// submission pool serializes its callers with a mutex); `release` is safe
// from any thread.  Slots are recycled, never returned to the heap until
// the pool dies — the same bounded-by-high-water-mark reclamation the
// Chase–Lev deque uses for its buffers.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/runtime/interference.h"
#include "src/runtime/job.h"

namespace pjsched::runtime {

class TaskPool {
 public:
  /// Slots carved per block: one block serves a whole fork-join fan-out,
  /// and steady-state spawn/execute churn allocates no blocks at all.
  static constexpr std::size_t kBlockSize = 128;

  TaskPool() = default;
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Owner thread only: constructs a Task in a recycled (or fresh) slot.
  Task* allocate(Job* job, TaskFn fn, WaitGroup* wg) {
    if (free_list_ == nullptr) {
      // order: acquire pairs with push_remote's release CAS — the remote
      // releaser's destruction of the slot contents happens-before reuse.
      free_list_ = reclaim_.exchange(nullptr, std::memory_order_acquire);
      if (free_list_ == nullptr) carve_block();
    }
    Slot* slot = free_list_;
    free_list_ = slot->next;
    return ::new (static_cast<void*>(slot->storage))
        Task{job, std::move(fn), wg};
  }

  /// Any thread: destroys the task and returns its slot to the owning
  /// pool.  `local` is the caller's own pool (nullptr for non-worker
  /// threads): a matching owner takes the unsynchronized freelist path,
  /// anything else CAS-pushes onto the owner's reclaim stack.
  static void release(Task* task, TaskPool* local) {
    Slot* slot = slot_of(task);
    task->~Task();
    TaskPool* owner = slot->owner;
    if (owner == local) {
      slot->next = owner->free_list_;
      owner->free_list_ = slot;
    } else {
      owner->push_remote(slot);
    }
  }

  /// Blocks carved so far (relaxed; for tests and diagnostics).  Recycling
  /// works iff this stays near the concurrency high-water mark while
  /// tasks-executed grows without bound.
  std::uint64_t blocks_carved() const {
    // order: relaxed — diagnostic counter; staleness is fine, no payload
    // is published through it.
    return blocks_carved_.load(std::memory_order_relaxed);
  }

  /// Cross-thread releases routed through the reclaim stack (relaxed).
  std::uint64_t remote_frees() const {
    // order: relaxed — diagnostic counter, as blocks_carved() above.
    return remote_frees_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    Slot* next = nullptr;       // freelist / reclaim link; dead while in use
    TaskPool* owner = nullptr;  // set once when the block is carved
    alignas(alignof(Task)) unsigned char storage[sizeof(Task)];
  };
  static_assert(std::is_standard_layout_v<Slot>,
                "slot_of recovers the Slot from the Task via offsetof");

  static Slot* slot_of(Task* task) {
    return reinterpret_cast<Slot*>(reinterpret_cast<unsigned char*>(task) -
                                   offsetof(Slot, storage));
  }

  void carve_block() {
    auto block = std::make_unique<Slot[]>(kBlockSize);
    for (std::size_t i = 0; i < kBlockSize; ++i) {
      block[i].owner = this;
      block[i].next = i + 1 < kBlockSize ? &block[i + 1] : nullptr;
    }
    free_list_ = &block[0];
    blocks_.push_back(std::move(block));
    // order: relaxed — owner-only diagnostic counter.
    blocks_carved_.fetch_add(1, std::memory_order_relaxed);
  }

  void push_remote(Slot* slot) {
    // order: relaxed — diagnostic counter; the CAS below synchronizes the
    // slot handoff itself.
    remote_frees_.fetch_add(1, std::memory_order_relaxed);
    // order: relaxed initial read — the CAS reloads on failure, and the
    // release on success is what publishes the link.
    Slot* head = reclaim_.load(std::memory_order_relaxed);
    do {
      slot->next = head;
      // order: release on success pairs with the owner's acquire exchange
      // in allocate() — the destructed slot contents happen-before reuse.
      // order: relaxed on failure — the loop retries with the freshly
      // loaded head and publishes nothing.
    } while (!reclaim_.compare_exchange_weak(head, slot,
                                             std::memory_order_release,
                                             std::memory_order_relaxed));
  }

  // Owner-only state on its own line(s); the remote-writable reclaim stack
  // padded away from it so thieves' frees don't invalidate the owner's
  // freelist cache line.
  Slot* free_list_ = nullptr;
  std::vector<std::unique_ptr<Slot[]>> blocks_;
  std::atomic<std::uint64_t> blocks_carved_{0};
  alignas(kDestructiveInterference) std::atomic<Slot*> reclaim_{nullptr};
  std::atomic<std::uint64_t> remote_frees_{0};
  char pad_[kDestructiveInterference -
            (sizeof(std::atomic<Slot*>) + sizeof(std::atomic<std::uint64_t>)) %
                kDestructiveInterference];
};

}  // namespace pjsched::runtime
