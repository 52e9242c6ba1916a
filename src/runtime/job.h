// Jobs and tasks for the threaded work-stealing runtime.
//
// A Job mirrors the paper's unit of service: it arrives (submit time), its
// DAG unfolds as tasks spawn subtasks, and it completes when every task has
// finished.  Completion is tracked with a pending-task counter: the root
// task counts 1, every spawn increments, every task-exit decrements; zero
// means done.  Flow time = completion - submission.
//
// Fault model: a job ends in exactly one terminal outcome.  `Completed` is
// the fault-free path; `Failed` (a task body threw) and `DeadlineExpired`
// (the per-job deadline passed before the job finished) are the degraded
// paths.  Cancellation is cooperative and monotone: the first cause wins
// (try_cancel is a single CAS), every not-yet-started task of a cancelled
// job is skipped instead of executed, and a skipped task still drains the
// pending counter *and* signals its WaitGroup, so joins and waiters always
// wake.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "src/runtime/annotations.h"
#include "src/runtime/inline_fn.h"
#include "src/runtime/mutex.h"

namespace pjsched::runtime {

class TaskContext;

/// The task body.  A small-buffer move-only callable (inline_fn.h): bodies
/// capturing at most InlineFn's inline capacity — everything the runtime's
/// own algorithms spawn — ride in the Task slab slot with zero allocator
/// traffic; larger bodies fall back to one heap allocation, as with
/// std::function.
using TaskFn = InlineFn<void(TaskContext&)>;
using Clock = std::chrono::steady_clock;

/// Terminal state of a job.  `kRunning` is the only non-terminal value.
enum class JobOutcome : std::uint8_t {
  kRunning,
  kCompleted,        ///< every task finished without fault
  kFailed,           ///< a task body threw; remaining tasks were cancelled
  kDeadlineExpired,  ///< the per-job deadline passed; remaining tasks cancelled
};

inline const char* to_string(JobOutcome o) {
  switch (o) {
    case JobOutcome::kRunning: return "running";
    case JobOutcome::kCompleted: return "completed";
    case JobOutcome::kFailed: return "failed";
    case JobOutcome::kDeadlineExpired: return "deadline-expired";
  }
  return "?";
}

/// Thrown out of TaskContext::wait_help when the surrounding job was
/// cancelled during the join: the remaining subtasks were skipped, so
/// continuing the body is pointless and it must unwind.  Thrown only once
/// the WaitGroup has fully drained — every subtask, skipped or executed,
/// still signals its WaitGroup — so no in-flight sibling can touch the
/// waiter's stack after the unwind.  The pool catches it at the task
/// boundary.
class JobCancelledError : public std::runtime_error {
 public:
  JobCancelledError() : std::runtime_error("job cancelled") {}
};

class Job {
 public:
  Job(std::uint64_t id, double weight) : id_(id), weight_(weight) {}

  std::uint64_t id() const { return id_; }
  double weight() const { return weight_; }

  Clock::time_point submit_time() const { return submit_time_; }
  Clock::time_point completion_time() const { return completion_time_; }

  bool finished() const { return finished_.load(std::memory_order_acquire); }

  /// Terminal outcome; kRunning until the job reaches one.
  JobOutcome outcome() const {
    return outcome_.load(std::memory_order_acquire);
  }

  /// True once the job has a degraded outcome (Failed / DeadlineExpired):
  /// remaining tasks will be skipped.  Long-running task
  /// bodies should poll TaskContext::cancelled() to stop early.
  bool cancelled() const {
    const JobOutcome o = outcome();
    return o != JobOutcome::kRunning && o != JobOutcome::kCompleted;
  }

  bool has_deadline() const { return has_deadline_; }
  Clock::time_point deadline() const { return deadline_; }

  /// What went wrong (first failure wins); empty for fault-free jobs.
  std::string error() const {
    MutexLock lock(mu_);
    return error_;
  }

  /// Blocks until the job reaches a terminal outcome (any of them: a
  /// cancelled job still "finishes" once its queued tasks have drained).
  void wait() const {
    MutexLock lock(mu_);
    while (!finished_.load(std::memory_order_acquire)) cv_.wait(mu_);
  }

  /// Flow time in seconds (valid after completion).
  double flow_seconds() const {
    return std::chrono::duration<double>(completion_time_ - submit_time_)
        .count();
  }

 private:
  friend class ThreadPool;
  friend class TaskContext;

  void mark_submitted() { submit_time_ = Clock::now(); }

  void set_deadline(Clock::time_point d) {
    deadline_ = d;
    has_deadline_ = true;
  }

  bool deadline_passed(Clock::time_point now) const {
    return has_deadline_ && now > deadline_;
  }

  /// Moves the job to a degraded terminal outcome; the first cause wins.
  /// Returns true iff this call performed the transition.
  bool try_cancel(JobOutcome reason) {
    JobOutcome expected = JobOutcome::kRunning;
    // order: acq_rel on success publishes everything the canceller did
    // before the transition to readers of outcome(); acquire on failure so
    // the loser observes the winner's outcome coherently.
    return outcome_.compare_exchange_strong(expected, reason,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire);
  }

  void set_error(std::string message) {
    MutexLock lock(mu_);
    if (error_.empty()) error_ = std::move(message);
  }

  void add_pending(std::uint64_t n = 1) {
    // order: relaxed — a task is only popped/stolen *after* the deque (or
    // admission queue) publication, which carries the increment; the
    // matching fetch_sub in finish_one is acq_rel and pairs the count.
    pending_.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t pending() const {
    // order: relaxed — diagnostic read (dump_state); a stale value only
    // makes the dump slightly stale, never wrong decisions.
    return pending_.load(std::memory_order_relaxed);
  }

  /// Returns true if this decrement completed the job.
  bool finish_one() {
    // order: acq_rel — release publishes this task's effects to whoever
    // performs the final decrement; acquire makes the final decrement
    // observe every earlier task's effects before declaring completion.
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      completion_time_ = Clock::now();
      // Fault-free drain => Completed; a cancelled job keeps its reason.
      JobOutcome expected = JobOutcome::kRunning;
      // order: acq_rel on success pairs with outcome() acquire loads;
      // acquire on failure — a cancelled job keeps its reason, and we must
      // see the canceller's writes before recording the job.
      outcome_.compare_exchange_strong(expected, JobOutcome::kCompleted,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire);
      {
        // The locked store pairs with wait()'s locked predicate loop: the
        // notify below cannot slip between a waiter's predicate check and
        // its block, so wakeups are never missed.
        MutexLock lock(mu_);
        finished_.store(true, std::memory_order_release);
      }
      cv_.notify_all();
      return true;
    }
    return false;
  }

  /// Retired = the pool has made its last access to the job (finish_job,
  /// after the recorder).  finished() is not enough: finish_one notifies
  /// cv_ after publishing finished_.  Only a retired job may lose the
  /// pool's reference.
  bool retired() const { return retired_.load(std::memory_order_acquire); }
  void mark_retired() { retired_.store(true, std::memory_order_release); }

  const std::uint64_t id_;
  const double weight_;
  std::atomic<std::uint64_t> pending_{0};
  std::atomic<bool> finished_{false};
  std::atomic<bool> retired_{false};
  std::atomic<JobOutcome> outcome_{JobOutcome::kRunning};
  Clock::time_point submit_time_{};
  Clock::time_point completion_time_{};
  Clock::time_point deadline_{};
  bool has_deadline_ = false;  // written before the job is visible to workers
  /// SubmitOptions::on_finish: set by submit() before the job is visible
  /// to workers, run and destroyed by the job's last finish_job (see there).
  InlineFn<void(const Job&)> on_finish_;
  mutable Mutex mu_;
  mutable CondVar cv_;
  std::string error_ PJSCHED_GUARDED_BY(mu_);  // first failure wins
};

using JobHandle = std::shared_ptr<Job>;

class WaitGroup;

/// A schedulable unit: one task of one job.  Owned by whoever holds the
/// pointer (deques and the admission queue hold raw pointers); lives in a
/// TaskPool slab slot — the executing worker *releases* it after running
/// (TaskPool::release recycles the slot), it is never `delete`d directly.
struct Task {
  Job* job = nullptr;
  TaskFn fn;
  /// The join this task reports to, or nullptr.  Kept outside the body on
  /// purpose: the pool signals it on *every* path out of execute() — body
  /// ran, body threw, or the task was skipped because its job was
  /// cancelled — so a WaitGroup always drains and a waiter never unwinds
  /// (destroying the stack-allocated WaitGroup) while a sibling still
  /// holds a pointer to it.
  WaitGroup* wg = nullptr;
};

/// Counts outstanding spawned subtasks for a fork-join "sync": the spawner
/// waits (while helping execute other tasks) until the count reaches zero.
class WaitGroup {
 public:
  explicit WaitGroup(std::uint64_t count = 0) : count_(count) {}
  // order: relaxed — add() runs in the spawner before the subtask is
  // published via the deque; the deque's release edge carries it.
  void add(std::uint64_t n = 1) {
    count_.fetch_add(n, std::memory_order_relaxed);
  }
  // order: acq_rel release-publishes the subtask's effects to the joiner,
  // whose idle() acquire-load pairs with it.
  void done() { count_.fetch_sub(1, std::memory_order_acq_rel); }
  bool idle() const { return count_.load(std::memory_order_acquire) == 0; }

 private:
  std::atomic<std::uint64_t> count_;
};

}  // namespace pjsched::runtime
