// The global FIFO admission queue the paper adds to the work-stealing
// runtime for multiprogrammed scheduling (Section 4): newly released jobs
// are appended at the tail; workers admit from the head in FIFO order,
// gated by the admission policy (admit-first / steal-k-first) in the worker
// loop.  Mutex-protected: admissions happen at job granularity, far too
// rarely for the lock to matter, and FIFO order must be exact.
//
// The queue may be bounded (capacity > 0), in which case a full queue
// triggers the configured BackpressurePolicy instead of unbounded growth:
// overload then degrades gracefully (bounded memory, bounded queueing
// delay for admitted jobs) instead of OOMing — the ThreadPool records what
// was dropped.
#pragma once

#include <cstddef>
#include <deque>

#include "src/runtime/annotations.h"
#include "src/runtime/job.h"
#include "src/runtime/mutex.h"

namespace pjsched::runtime {

/// What a full bounded queue does with a new submission.
enum class BackpressurePolicy {
  kBlock,         ///< the submitter blocks until a worker admits a job
  kRejectNewest,  ///< the new job is rejected (recorded as Shed)
  kShedOldest,    ///< the oldest queued job is dropped to make room
};

inline const char* to_string(BackpressurePolicy p) {
  switch (p) {
    case BackpressurePolicy::kBlock: return "block";
    case BackpressurePolicy::kRejectNewest: return "reject-newest";
    case BackpressurePolicy::kShedOldest: return "shed-oldest";
  }
  return "?";
}

class AdmissionQueue {
 public:
  enum class PushResult {
    kAccepted,  ///< task enqueued (possibly after evicting the oldest)
    kRejected,  ///< task not enqueued; caller keeps ownership
  };

  /// Queue-level accounting, maintained under the queue's own lock so the
  /// books can never be observed torn: every counter in a stats() snapshot
  /// comes from one critical section (the same one-coherent-snapshot
  /// pattern PoolStats uses), so `accepted == popped + shed + depth` holds
  /// in every snapshot — the watchdog dump and the service layer's shed
  /// cross-checks rely on that exactness.
  struct Stats {
    std::uint64_t accepted = 0;         ///< pushes that enqueued
    std::uint64_t rejected_full = 0;    ///< reject-newest refusals
    std::uint64_t rejected_closed = 0;  ///< refused because close()d
    std::uint64_t shed = 0;             ///< evictions by shed-oldest
    std::uint64_t popped = 0;           ///< successful try_pop calls
    std::size_t depth = 0;              ///< queued right now
    std::size_t peak_depth = 0;         ///< high-water mark of depth
  };

  /// capacity == 0 means unbounded (the policy is then never consulted).
  explicit AdmissionQueue(
      std::size_t capacity = 0,
      BackpressurePolicy policy = BackpressurePolicy::kBlock)
      : capacity_(capacity), policy_(policy) {}
  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Appends a job's root task at the tail, applying the backpressure
  /// policy when the queue is full:
  ///   * kBlock — waits until space frees up (or the queue is closed, in
  ///     which case kRejected is returned);
  ///   * kRejectNewest — returns kRejected, caller keeps ownership of
  ///     `task`;
  ///   * kShedOldest — evicts the head into *evicted (caller takes
  ///     ownership of the evicted task) and accepts `task`.
  /// `evicted` must be non-null; it is set to nullptr unless an eviction
  /// happened.
  PushResult push(Task* task, Task** evicted);

  /// Pops the head task, or returns nullptr when empty.
  Task* try_pop();

  /// Wakes all blocked pushers with kRejected and makes every future push
  /// (any policy) return kRejected — the shutdown barrier that guarantees
  /// a task can never slip into a queue nobody will drain.  Queued tasks
  /// stay poppable (shutdown drains them).
  void close();

  std::size_t size() const;
  bool empty() const { return size() == 0; }
  std::size_t capacity() const { return capacity_; }
  BackpressurePolicy policy() const { return policy_; }

  /// One coherent snapshot of the accounting, taken in a single critical
  /// section (never torn: the shed counter and the depth it explains come
  /// from the same lock hold).
  Stats stats() const;

 private:
  bool full_locked() const PJSCHED_REQUIRES(mu_) {
    return capacity_ != 0 && queue_.size() >= capacity_;
  }

  const std::size_t capacity_;
  const BackpressurePolicy policy_;
  mutable Mutex mu_;
  CondVar space_cv_;  ///< signalled on pop (space freed) and on close()
  bool closed_ PJSCHED_GUARDED_BY(mu_) = false;
  std::deque<Task*> queue_ PJSCHED_GUARDED_BY(mu_);
  Stats stats_ PJSCHED_GUARDED_BY(mu_);  ///< depth/peak updated inline
};

}  // namespace pjsched::runtime
