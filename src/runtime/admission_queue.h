// The global FIFO admission queue the paper adds to the work-stealing
// runtime for multiprogrammed scheduling (Section 4): newly released jobs
// are appended at the tail; workers admit from the head in FIFO order,
// gated by the admission policy (admit-first / steal-k-first) in the worker
// loop.  Mutex-protected: admissions happen at job granularity, far too
// rarely for the lock to matter, and FIFO order must be exact.
//
// Unbounded, as the paper's is: a job's root task enters once and leaves
// only when a worker admits it.  Overload control lives above the pool, in
// the service's TenantRouter and dispatch window.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>

#include "src/runtime/annotations.h"
#include "src/runtime/job.h"
#include "src/runtime/mutex.h"

namespace pjsched::runtime {

class AdmissionQueue {
 public:
  /// Queue-level accounting, maintained under the queue's own lock so the
  /// books can never be observed torn: every counter in a stats() snapshot
  /// comes from one critical section, so `accepted == popped + depth` holds
  /// in every snapshot — the watchdog dump and the chaos campaign's pool
  /// books rely on that exactness.
  struct Stats {
    std::uint64_t accepted = 0;  ///< pushes that enqueued
    std::uint64_t popped = 0;    ///< successful try_pop calls
    std::size_t depth = 0;       ///< queued right now
    std::size_t peak_depth = 0;  ///< high-water mark of depth
  };

  AdmissionQueue() = default;
  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Appends a job's root task at the tail.  Returns false only once the
  /// queue is closed; the caller then keeps ownership of `task`.
  bool push(Task* task);

  /// Pops the head task, or returns nullptr when empty.
  Task* try_pop();

  /// Makes every later push() return false — the shutdown barrier that
  /// guarantees a task can never slip into a queue nobody will drain.
  /// Queued tasks stay poppable (shutdown drains them).
  void close();

  std::size_t size() const;
  bool empty() const { return size() == 0; }

  /// One coherent snapshot of the accounting, taken in a single critical
  /// section.
  Stats stats() const;

 private:
  mutable Mutex mu_;
  bool closed_ PJSCHED_GUARDED_BY(mu_) = false;
  std::deque<Task*> queue_ PJSCHED_GUARDED_BY(mu_);
  Stats stats_ PJSCHED_GUARDED_BY(mu_);  ///< depth filled in by stats()
};

}  // namespace pjsched::runtime
