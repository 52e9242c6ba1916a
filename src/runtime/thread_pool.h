// The TBB-style multiprogrammed work-stealing thread pool (paper Section 6:
// "We extended TBB to schedule multiple jobs arriving online by adding a
// global FIFO queue for admitting jobs and we implement both admit-first
// and steal-k-first").
//
// Architecture:
//   * one worker thread per configured slot, each owning a Chase–Lev deque;
//   * a global, unbounded FIFO AdmissionQueue of job root tasks: every
//     submitted job enters it once and leaves it only when a worker admits
//     it (overload control lives above the pool, in the service layer);
//   * workers run: local pop -> (policy-gated) admit -> random steal;
//     under steal-k-first a worker admits only after k consecutive failed
//     steal attempts, under admit-first (k = 0) it checks the global queue
//     as soon as its deque is empty;
//   * a worker that finds nothing even in a round allowed to admit spins
//     for a short self-tuned budget, then parks until a submit, a spawn
//     onto an empty deque, a thief that leaves work behind, or shutdown
//     wakes it (see park());
//   * tasks spawn subtasks onto their worker's deque (TaskContext::spawn)
//     and join with help-first waiting (TaskContext::wait_help), which
//     executes other tasks instead of blocking the thread;
//   * job flow times and terminal outcomes land in a FlowRecorder, one
//     shard per worker: every job retires on a worker.
//
// Fault tolerance (see docs/runtime.md, "Failure model"):
//   * an exception escaping a task body is contained at the task boundary:
//     the job is marked Failed, its not-yet-started tasks are skipped, and
//     the pool keeps scheduling every other job;
//   * submit() accepts an optional per-job deadline; once it passes, the
//     job is cancelled and recorded as DeadlineExpired;
//   * a seeded FaultPlan can inject task failures, per-worker stalls, and
//     admission delays for reproducible robustness experiments;
//   * an opt-in watchdog thread detects lack of progress (pending jobs but
//     no task executions across an interval) and emits a diagnostic dump
//     instead of hanging silently.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/runtime/admission_queue.h"
#include "src/runtime/annotations.h"
#include "src/runtime/chase_lev_deque.h"
#include "src/runtime/fault_injection.h"
#include "src/runtime/flow_recorder.h"
#include "src/runtime/interference.h"
#include "src/runtime/job.h"
#include "src/runtime/mutex.h"
#include "src/runtime/task_pool.h"
#include "src/sim/rng.h"

namespace pjsched::runtime {

struct PoolOptions {
  unsigned workers = std::thread::hardware_concurrency();
  /// Failed steal attempts before a worker may admit from the global queue
  /// (0 = admit-first; the paper's empirical choice is 16).
  unsigned steal_k = 0;
  std::uint64_t seed = 1;

  /// Faults to inject (empty plan = none; see fault_injection.h).
  FaultPlan fault_plan;

  /// If > 0, a watchdog thread checks every interval whether the pool has
  /// pending jobs but executed no task since the previous check, and emits
  /// a diagnostic dump (dump_state()) when so.
  std::chrono::milliseconds watchdog_interval{0};
  /// Where watchdog dumps go; nullptr = std::cerr.
  // lint: allow(std-function): user-facing sink set once per pool, invoked
  // off the hot path by the watchdog thread only; copyability is part of
  // the PoolOptions contract, so InlineFn (move-only) does not fit.
  std::function<void(const std::string&)> watchdog_sink;
};

struct PoolStats {
  /// Failed-or-successful steal *rounds* (one multi-probe sweep each).
  std::uint64_t steal_attempts = 0;
  std::uint64_t successful_steals = 0;
  std::uint64_t admissions = 0;
  std::uint64_t tasks_executed = 0;
  /// Times a worker blocked on the idle condition variable (see park()).
  std::uint64_t parks = 0;

  // Task-slab allocator health (see task_pool.h).
  std::uint64_t task_slab_blocks = 0;  ///< blocks carved across all pools
  std::uint64_t task_remote_frees = 0; ///< cross-thread releases (reclaim path)

  // Fault-tolerance counters.
  std::uint64_t tasks_cancelled = 0;  ///< tasks skipped: their job was
                                      ///< cancelled
  std::uint64_t faults_injected = 0;  ///< task failures injected by the plan
  std::uint64_t jobs_failed = 0;      ///< jobs ended Failed
  std::uint64_t jobs_deadline_expired = 0;
  std::uint64_t watchdog_dumps = 0;
};

/// Per-job submission parameters.
struct SubmitOptions {
  double weight = 1.0;
  /// If set, the job must finish within this duration of submission;
  /// afterwards it is cancelled and recorded as DeadlineExpired.
  /// Enforcement is cooperative: checked before every task of the job
  /// executes (long task bodies should poll TaskContext::cancelled()).
  std::optional<Clock::duration> deadline;
  /// Runs exactly once, with the finished job, on the pool worker that
  /// retires it: after the recorder write, before wait_all() can count the
  /// job, whatever its outcome.  The pool destroys the hook, and everything
  /// it captures, right after the call, once the job's last task has
  /// exited.  So tasks may point into a capture by raw pointer (submit_dag
  /// owns its per-job execution block this way).  A submit() that throws
  /// destroys the hook unrun.  It must not throw.
  InlineFn<void(const Job&)> on_finish;
};

class ThreadPool;

namespace detail {

/// Per-worker counters, padded to a destructive-interference boundary:
/// each worker bumps its own counters on every task, and the padding makes
/// the no-false-sharing property structural rather than allocator luck.
/// Single-writer: only the owning worker writes (plain relaxed load+store,
/// no RMW — a lock-prefixed add per task is measurable at fine grain);
/// stats()/dump_state() read cross-thread with relaxed loads.
struct alignas(kDestructiveInterference) WorkerCounters {
  std::atomic<std::uint64_t> steal_attempts{0};
  std::atomic<std::uint64_t> successful_steals{0};
  std::atomic<std::uint64_t> admissions{0};
  std::atomic<std::uint64_t> tasks_executed{0};
  std::atomic<std::uint64_t> tasks_cancelled{0};
  std::atomic<std::uint64_t> parks{0};

  /// Owner-only increment: safe without an RMW because each counter has
  /// exactly one writer.
  // order: relaxed load+store — single-writer counter (only the owning
  // worker writes); readers (stats/dump_state) tolerate staleness, and no
  // payload is published through these values.
  static void bump(std::atomic<std::uint64_t>& c) {
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
};

/// Everything one worker owns.  A ThreadPool implementation detail at
/// namespace scope only so TaskContext can carry a pointer to it (the hot
/// spawn path must not re-chase workers_[i] per task).
struct alignas(kDestructiveInterference) WorkerState {
  ChaseLevDeque<Task*> deque;
  TaskPool task_pool;  ///< slab for tasks spawned on this worker
  sim::Rng rng{1};
  unsigned fail_count = 0;
  WorkerCounters counters;
  std::thread thread;
};

}  // namespace detail

/// Handed to every executing task; the gateway for spawning subtasks.
class TaskContext {
 public:
  /// Spawns a subtask of the current job onto this worker's deque.
  void spawn(TaskFn fn);

  /// Spawns a subtask that signals `wg` when it finishes.
  void spawn(TaskFn fn, WaitGroup& wg);

  /// Help-first join: executes queued/stolen tasks until wg.idle().
  /// Never blocks the worker thread.  If the surrounding job is cancelled
  /// during the join, wait_help still drains the WaitGroup completely
  /// (skipped subtasks signal it too — see Task::wg) and only then throws
  /// JobCancelledError, so no in-flight sibling can touch the WaitGroup's
  /// stack frame after the unwind; the pool catches the exception at the
  /// task boundary.
  void wait_help(WaitGroup& wg);

  /// True once this task's job has been cancelled (failure or deadline).
  /// Long-running bodies should poll this and return early.
  bool cancelled() const { return job_->cancelled(); }

  /// Cooperative deadline enforcement for long task bodies.  The pool
  /// checks a job's deadline before each of its tasks *starts*; a job
  /// whose entire remaining work lives inside one long body would never be
  /// checked again, so such bodies call this between work quanta: it
  /// performs the DeadlineExpired cancellation if the deadline has passed
  /// and returns true when the job is cancelled for any cause (the body
  /// should return early).
  bool poll_deadline();

  /// The job this task belongs to.
  Job& job() const { return *job_; }
  /// Index of the executing worker.
  unsigned worker_index() const { return worker_; }
  ThreadPool& pool() const { return *pool_; }

 private:
  friend class ThreadPool;
  TaskContext(ThreadPool* pool, detail::WorkerState* state, unsigned worker,
              Job* job)
      : pool_(pool), state_(state), worker_(worker), job_(job) {}

  ThreadPool* pool_;
  detail::WorkerState* state_;  // cached &pool_->workers_[worker_]
  unsigned worker_;
  Job* job_;
};

class ThreadPool {
 public:
  explicit ThreadPool(const PoolOptions& options);
  /// Drains all submitted jobs, then stops and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Submits a job whose root task is `root` and returns at once; the job
  /// waits in the unbounded admission queue until a worker admits it.  The
  /// submission time recorded for flow accounting is *now*.  Safe from any
  /// thread, a task body of this pool included.
  ///
  /// Calling submit() after shutdown() fails loudly: it throws
  /// std::logic_error.  A submit() racing shutdown() has exactly two
  /// results: it throws std::logic_error, with nothing counted, recorded
  /// or run and `options.on_finish` destroyed unrun; or its job reaches
  /// completed, failed or deadline-expired before shutdown() returns.
  JobHandle submit(TaskFn root, SubmitOptions options);
  JobHandle submit(TaskFn root, double weight = 1.0);

  /// Blocks until every job submitted so far has reached a terminal
  /// outcome (completed, failed or deadline-expired).
  void wait_all();

  /// Closes the admission queue, drains every job it accepted, and joins
  /// the workers (idempotent; also run by the destructor).
  void shutdown();

  unsigned workers() const { return static_cast<unsigned>(workers_.size()); }
  /// Note: Job::wait() returns just before the job lands in the recorder;
  /// wait_all() is the barrier after which the recorder covers every
  /// submitted job.
  FlowRecorder& recorder() { return recorder_; }
  /// Aggregated from ONE pass over the workers (each counter read exactly
  /// once per call); counters are updated with relaxed atomics, so a
  /// snapshot taken while the pool is busy may be slightly stale but is
  /// race-free and internally consistent — stats() and dump_state() never
  /// mix two reads of the same counter.
  PoolStats stats() const;

  /// One coherent snapshot of the admission queue's own books (taken in a
  /// single critical section; see AdmissionQueue::Stats).
  AdmissionQueue::Stats admission_stats() const { return admission_.stats(); }

  /// Human-readable snapshot of pool state: job counters, admission-queue
  /// depth, per-worker deque depths and counters, and the first unfinished
  /// jobs.  This is what the watchdog emits on a stall.
  std::string dump_state() const;

 private:
  friend class TaskContext;
  using WorkerState = detail::WorkerState;

  /// One worker's counters read in a single pass (each atomic loaded
  /// exactly once); the unit both stats() and dump_state() are built from.
  struct WorkerSnapshot {
    std::size_t deque_hint = 0;
    std::uint64_t steal_attempts = 0;
    std::uint64_t successful_steals = 0;
    std::uint64_t admissions = 0;
    std::uint64_t tasks_executed = 0;
    std::uint64_t tasks_cancelled = 0;
    std::uint64_t parks = 0;
    std::uint64_t slab_blocks = 0;
    std::uint64_t remote_frees = 0;
  };
  std::vector<WorkerSnapshot> snapshot_workers() const;

  void worker_main(unsigned index);
  /// Blocks the idle worker `w` until work may be visible or stop_ is set.
  /// Event count: announce in sleepers_, snapshot idle_epoch_, re-check
  /// every deque and the admission queue, then wait while the epoch is
  /// unchanged.  A waker publishes its work first and then reads
  /// sleepers_, so either the re-check sees the work or the waker sees the
  /// sleeper and bumps the epoch.
  void park(WorkerState& w);
  /// Waker side, after work was published: a seq_cst fence orders the
  /// publication before the sleepers_ read (the re-check pairs with it).
  /// Costs the fence and one load when nobody sleeps.
  void wake_one_if_parked();
  /// Bumps the epoch under idle_mu_ and wakes one (or every) sleeper.
  void wake(bool all);
  void watchdog_main(std::chrono::milliseconds interval);
  /// One acquire-execute round; returns true if a task was executed.
  /// `helping` suppresses admission (a helper joining a WaitGroup must not
  /// start brand-new jobs mid-join: it only drains existing work).
  /// `w` is `*workers_[index]`, threaded through to keep the per-task path
  /// free of repeated indirection.
  bool try_run_one(unsigned index, WorkerState& w, bool helping);
  void execute(Task* task, unsigned worker, WorkerState& w);
  /// One steal round: up to kStealProbes victims, random start, rotating.
  Task* try_steal(unsigned thief, WorkerState& me);
  /// Drains one pending count; on the job's last task records it in the
  /// worker's recorder shard, runs and destroys its
  /// SubmitOptions::on_finish and, only when this was the last outstanding
  /// job, notifies done_cv_ (completions of non-final jobs touch no lock).
  void finish_job(Job* job, unsigned worker);

  std::vector<std::unique_ptr<WorkerState>> workers_;
  AdmissionQueue admission_;
  FlowRecorder recorder_;
  mutable Mutex external_mu_;  // stats()/dump_state() are const readers
  /// Slab for root tasks built by submit(); external_mu_ serializes the
  /// owner-side allocate() between non-worker callers (submission is
  /// job-granularity, far off the per-task hot path).  Workers *release*
  /// into it without the lock, by design: TaskPool::release routes
  /// cross-thread frees through the pool's lock-free reclaim stack (see
  /// task_pool.h), which never touches the mutex-guarded freelist.
  TaskPool external_pool_ PJSCHED_GUARDED_BY(external_mu_);
  const unsigned steal_k_;
  std::unique_ptr<FaultInjector> injector_;  // null when the plan is empty

  std::atomic<bool> stop_{false};
  std::atomic<bool> accepting_{true};
  /// The five job counters share a cache line with nothing else: every
  /// submit() and every job's retirement writes it, while every round reads
  /// stop_ and steal_k_ and every task reads injector_.
  alignas(kDestructiveInterference)
      std::atomic<std::uint64_t> jobs_submitted_{0};
  std::atomic<std::uint64_t> jobs_completed_{0};
  std::atomic<std::uint64_t> jobs_failed_{0};
  std::atomic<std::uint64_t> jobs_deadline_expired_{0};
  std::atomic<std::uint64_t> watchdog_dumps_{0};
  /// Workers announced in park(); read by every waker, written only when a
  /// worker parks or unparks.  On its own cache line, away from the
  /// counters every completion writes (jobs_completed_).
  alignas(kDestructiveInterference) std::atomic<unsigned> sleepers_{0};
  /// The event count's epoch: bumped by every wake, so a worker that
  /// snapshotted it before its re-check never sleeps through a wake that
  /// came after.  A leaf lock: nothing else is taken under it (see
  /// docs/static-analysis.md), which is why park() re-checks outside it.
  Mutex idle_mu_;
  std::uint64_t idle_epoch_ PJSCHED_GUARDED_BY(idle_mu_) = 0;
  CondVar idle_cv_;  ///< parked workers wait here; notified by wake()
  mutable Mutex done_mu_;  // dump_state() is const and snapshots jobs
  CondVar done_cv_;
  /// The pool's reference to each job it has not yet retired (tasks hold
  /// raw Job pointers, so a job must outlive them even if the caller drops
  /// its handle).  submit() drops retired jobs once the vector has doubled
  /// since the last prune, so it stays within ~2x the unretired jobs (at
  /// least kLivePruneFloor) instead of growing with every job ever run.
  std::vector<JobHandle> live_jobs_ PJSCHED_GUARDED_BY(done_mu_);
  static constexpr std::size_t kLivePruneFloor = 1024;
  std::size_t live_prune_at_ PJSCHED_GUARDED_BY(done_mu_) = kLivePruneFloor;

  // lint: allow(std-function): cold-path copy of PoolOptions::watchdog_sink.
  std::function<void(const std::string&)> watchdog_sink_;
  Mutex watchdog_mu_;
  CondVar watchdog_cv_;
  bool watchdog_stop_ PJSCHED_GUARDED_BY(watchdog_mu_) = false;
  std::thread watchdog_;
};

/// Parallel-for over [begin, end): splits into chunks of at most `grain`
/// consecutive indices, spawns one subtask per chunk, and help-joins.
/// `body` receives (chunk_begin, chunk_end).  Must be called from inside a
/// task (uses ctx.spawn / ctx.wait_help).
template <typename Body>
void parallel_for(TaskContext& ctx, std::size_t begin, std::size_t end,
                  std::size_t grain, Body body) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  const std::size_t count = end - begin;
  const std::size_t chunks = (count + grain - 1) / grain;
  if (chunks == 1) {
    body(begin, end);
    return;
  }
  WaitGroup wg;
  // Keep the last chunk for ourselves; spawn the rest.
  for (std::size_t c = 0; c + 1 < chunks; ++c) {
    const std::size_t lo = begin + c * grain;
    const std::size_t hi = lo + grain;
    ctx.spawn([lo, hi, &body](TaskContext&) { body(lo, hi); }, wg);
  }
  body(begin + (chunks - 1) * grain, end);
  ctx.wait_help(wg);
}

}  // namespace pjsched::runtime
