#include "src/runtime/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace pjsched::runtime {

namespace {
// Victims probed per steal round (bounded multi-probe): a failed round has
// looked at several deques, so fail_count — which still counts *rounds*,
// preserving the paper's steal-k admission semantics — represents real
// evidence of an idle system rather than one unlucky coin flip.
constexpr unsigned kStealProbes = 4;

// Spin-then-park budget, in idle rounds (one try_run_one plus one
// cpu_relax each).  Parking pays off only when an idle spell outlasts one
// park plus one wake-up, so each worker tunes its budget from the spells it
// sees: a spell that ends with work found while spinning lengthens the
// next spin by a step, and each park halves it.  Closed loops that idle
// for about one wake-up between jobs settle near the top; open-loop
// traffic with idle spells of hundreds of microseconds settles near the
// bottom.
constexpr unsigned kSpinRoundsMin = 4;
constexpr unsigned kSpinRoundsMax = 256;
constexpr unsigned kSpinRoundsStep = 32;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}
}  // namespace

void TaskContext::spawn(TaskFn fn) {
  job_->add_pending();
  if (state_->deque.push(
          state_->task_pool.allocate(job_, std::move(fn), nullptr)))
    pool_->wake_one_if_parked();
}

void TaskContext::spawn(TaskFn fn, WaitGroup& wg) {
  wg.add();
  job_->add_pending();
  // The WaitGroup rides on the Task, not inside the body: execute() signals
  // it on every exit path (ran / threw / skipped-as-cancelled), which is
  // what lets wait_help guarantee a full drain before unwinding.
  if (state_->deque.push(state_->task_pool.allocate(job_, std::move(fn), &wg)))
    pool_->wake_one_if_parked();
}

void TaskContext::wait_help(WaitGroup& wg) {
  unsigned spins = 0;
  while (!wg.idle()) {
    if (pool_->try_run_one(worker_, *state_, /*helping=*/true)) {
      spins = 0;
    } else if (++spins > 64) {
      std::this_thread::yield();
    } else {
      cpu_relax();
    }
  }
  // Unwind cancelled bodies only *after* the join has drained: a sibling
  // subtask that slipped past the cancellation check may still be running
  // on another worker, holding a pointer to `wg` — which lives on this
  // task's stack and dies with the unwind.  Skipped subtasks signal the
  // WaitGroup too (execute() runs Task::wg on every path), so the drain
  // always terminates.
  if (job_->cancelled()) throw JobCancelledError();
}

bool TaskContext::poll_deadline() {
  if (job_->cancelled()) return true;
  if (job_->has_deadline() && job_->deadline_passed(Clock::now()) &&
      job_->try_cancel(JobOutcome::kDeadlineExpired))
    // order: relaxed — diagnostic tally; try_cancel's CAS is the
    // synchronizing outcome transition (same as the execute() check).
    pool_->jobs_deadline_expired_.fetch_add(1, std::memory_order_relaxed);
  return job_->cancelled();
}

ThreadPool::ThreadPool(const PoolOptions& options)
    : // One recorder shard per worker: every job retires on a worker.
      recorder_(options.workers == 0 ? 1 : options.workers),
      steal_k_(options.steal_k),
      watchdog_sink_(options.watchdog_sink) {
  const unsigned n = options.workers == 0 ? 1 : options.workers;
  if (!options.fault_plan.empty())
    injector_ = std::make_unique<FaultInjector>(options.fault_plan, n);
  sim::Rng root_rng(options.seed);
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    auto state = std::make_unique<WorkerState>();
    state->rng = root_rng.fork(i + 1);
    workers_.push_back(std::move(state));
  }
  for (unsigned i = 0; i < n; ++i)
    workers_[i]->thread = std::thread([this, i] { worker_main(i); });
  if (options.watchdog_interval.count() > 0) {
    watchdog_ = std::thread([this, interval = options.watchdog_interval] {
      watchdog_main(interval);
    });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

JobHandle ThreadPool::submit(TaskFn root, double weight) {
  SubmitOptions options;
  options.weight = weight;
  return submit(std::move(root), std::move(options));
}

JobHandle ThreadPool::submit(TaskFn root, SubmitOptions options) {
  static constexpr const char* kShutDown =
      "ThreadPool::submit: pool is shut down; submissions after shutdown() "
      "are a caller error";
  if (!accepting_.load(std::memory_order_acquire))
    throw std::logic_error(kShutDown);
  // order: acq_rel (was an implicit seq_cst) — the release half orders the
  // increment before this job's publication via the admission queue, so a
  // completion comparing jobs_completed_ == jobs_submitted_ (both acquire)
  // can never count a job whose submission it cannot see; nothing needs a
  // single total order across *both* counters, so seq_cst bought nothing.
  auto job = std::make_shared<Job>(
      jobs_submitted_.fetch_add(1, std::memory_order_acq_rel) + 1,
      options.weight);
  job->mark_submitted();
  if (options.deadline.has_value())
    job->set_deadline(job->submit_time() + *options.deadline);
  job->on_finish_ = std::move(options.on_finish);  // before tasks see the job
  job->add_pending();  // the root task
  {
    MutexLock lock(done_mu_);
    // Amortized O(1) per submit; the completion path stays lock-free.
    if (live_jobs_.size() >= live_prune_at_) {
      std::erase_if(live_jobs_,
                    [](const JobHandle& j) { return j->retired(); });
      live_prune_at_ = std::max(kLivePruneFloor, 2 * live_jobs_.size());
    }
    live_jobs_.push_back(job);
  }
  Task* task;
  {
    MutexLock lock(external_mu_);
    task = external_pool_.allocate(job.get(), std::move(root), nullptr);
  }
  if (!admission_.push(task)) {
    // shutdown() closed the queue after the check above: fail as a late
    // submit does.  The root and the job, and with it the hook, die unrun,
    // and the job leaves the books under done_mu_, as a finished one does,
    // so a wait_all() already waiting on it returns.
    TaskPool::release(task, /*local=*/nullptr);
    {
      MutexLock lock(done_mu_);
      std::erase(live_jobs_, job);
      // order: acq_rel — the mirror of the increment above.
      jobs_submitted_.fetch_sub(1, std::memory_order_acq_rel);
    }
    done_cv_.notify_all();
    throw std::logic_error(kShutDown);
  }
  wake_one_if_parked();
  return job;
}

void ThreadPool::finish_job(Job* job, unsigned worker) {
  if (job->finish_one()) {
    recorder_.record(*job, worker);
    // Every task of the job has exited (each held a pending count until
    // then), so nothing points into the hook's captures any more.  Run and
    // destroyed before the count below, so wait_all() returning means every
    // hook has run and is gone.
    if (job->on_finish_) {
      job->on_finish_(*job);
      job->on_finish_.reset();
    }
    // The last access to *job: from here submit() may drop the pool's
    // reference, and with it the job.
    job->mark_retired();
    // Hot path: one RMW per job, no lock.  Only the completion that
    // observes itself as the *last outstanding job* touches done_mu_.
    // order: acq_rel — release publishes this job's recorder write before
    // the count; acquire lets the final completion see every prior one.
    const std::uint64_t done =
        jobs_completed_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (done == jobs_submitted_.load(std::memory_order_acquire)) {
      // The empty critical section pairs with wait_all()'s locked predicate
      // check: the notify cannot slip between a waiter evaluating its
      // predicate (and seeing the pre-increment count) and blocking.  If a
      // concurrent submit made the equality stale, that job's own
      // completion re-notifies later — waiters re-check under the lock.
      { MutexLock lock(done_mu_); }
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::wait_all() {
  MutexLock lock(done_mu_);
  while (jobs_completed_.load(std::memory_order_acquire) !=
         jobs_submitted_.load(std::memory_order_acquire))
    done_cv_.wait(done_mu_);
}

void ThreadPool::shutdown() {
  bool expected = true;
  // order: acq_rel (was an implicit seq_cst) — acquire so the winning
  // shutdown observes everything published before the last submit; release
  // so submit()'s acquire load of accepting_ sees the close.  The CAS only
  // arbitrates which caller runs the shutdown sequence; no cross-variable
  // total order is involved.  Failure is acquire: the loser returns
  // immediately and must still see the winner's progress coherently.
  if (!accepting_.compare_exchange_strong(expected, false,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire))
    return;  // already shut down (or shutting down on another thread)
  // Closed before the drain: a racing submit() either enqueued before this
  // point, and wait_all() below covers its job, or it fails and throws.
  admission_.close();
  wait_all();
  stop_.store(true, std::memory_order_release);
  // Every parked worker must see stop_: the epoch bump under idle_mu_
  // orders the store before any later snapshot, and ends every wait on an
  // earlier one.
  wake(/*all=*/true);
  for (auto& w : workers_)
    if (w->thread.joinable()) w->thread.join();
  if (watchdog_.joinable()) {
    {
      MutexLock lock(watchdog_mu_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.notify_all();
    watchdog_.join();
  }
  MutexLock lock(done_mu_);
  live_jobs_.clear();
}

std::vector<ThreadPool::WorkerSnapshot> ThreadPool::snapshot_workers() const {
  std::vector<WorkerSnapshot> snaps;
  snaps.reserve(workers_.size());
  for (const auto& w : workers_) {
    WorkerSnapshot s;
    s.deque_hint = w->deque.size_hint();
    // order: relaxed throughout — single-writer diagnostic counters (see
    // WorkerCounters::bump); a snapshot may lag the writer but each value
    // is a real past value, and no payload is published through them.
    s.steal_attempts =
        w->counters.steal_attempts.load(std::memory_order_relaxed);
    // order: relaxed — same single-writer diagnostic contract.
    s.successful_steals =
        w->counters.successful_steals.load(std::memory_order_relaxed);
    // order: relaxed — same single-writer diagnostic contract.
    s.admissions = w->counters.admissions.load(std::memory_order_relaxed);
    // order: relaxed — same single-writer diagnostic contract as above.
    s.tasks_executed =
        w->counters.tasks_executed.load(std::memory_order_relaxed);
    s.tasks_cancelled =
        w->counters.tasks_cancelled.load(std::memory_order_relaxed);
    // order: relaxed — same single-writer diagnostic contract.
    s.parks = w->counters.parks.load(std::memory_order_relaxed);
    s.slab_blocks = w->task_pool.blocks_carved();
    s.remote_frees = w->task_pool.remote_frees();
    snaps.push_back(s);
  }
  return snaps;
}

PoolStats ThreadPool::stats() const {
  PoolStats total;
  for (const WorkerSnapshot& s : snapshot_workers()) {
    total.steal_attempts += s.steal_attempts;
    total.successful_steals += s.successful_steals;
    total.admissions += s.admissions;
    total.tasks_executed += s.tasks_executed;
    total.tasks_cancelled += s.tasks_cancelled;
    total.parks += s.parks;
    total.task_slab_blocks += s.slab_blocks;
    total.task_remote_frees += s.remote_frees;
  }
  {
    // The external pool's slab counters are themselves atomic, but the
    // pool object is annotated as guarded by external_mu_; stats() is a
    // report-time path, so the brief lock is cheaper than weakening the
    // annotation for every accessor.
    MutexLock lock(external_mu_);
    total.task_slab_blocks += external_pool_.blocks_carved();
    total.task_remote_frees += external_pool_.remote_frees();
  }
  total.faults_injected = injector_ ? injector_->faults_injected() : 0;
  // order: relaxed throughout — outcome tallies are monotone diagnostic
  // counters; stats() promises a coherent one-pass snapshot, not a
  // linearized cross-counter view.
  total.jobs_failed = jobs_failed_.load(std::memory_order_relaxed);
  total.jobs_deadline_expired =
      jobs_deadline_expired_.load(std::memory_order_relaxed);
  // order: relaxed — same diagnostic-counter contract as above.
  total.watchdog_dumps = watchdog_dumps_.load(std::memory_order_relaxed);
  return total;
}

std::string ThreadPool::dump_state() const {
  std::ostringstream out;
  const std::uint64_t submitted =
      jobs_submitted_.load(std::memory_order_acquire);
  const std::uint64_t completed =
      jobs_completed_.load(std::memory_order_acquire);
  // One pass over the workers; totals and per-worker rows below are views
  // of the same snapshot, so they always add up.
  const std::vector<WorkerSnapshot> snaps = snapshot_workers();
  std::uint64_t total_tasks = 0, total_blocks = 0;
  {
    MutexLock lock(external_mu_);  // external_pool_ is guarded (see header)
    total_blocks = external_pool_.blocks_carved();
  }
  for (const WorkerSnapshot& s : snaps) {
    total_tasks += s.tasks_executed;
    total_blocks += s.slab_blocks;
  }
  // One stats() call: depth, peak and the tallies all come from the same
  // lock hold, so the dump's queue line always adds up.
  const AdmissionQueue::Stats qs = admission_.stats();
  out << "ThreadPool diagnostic dump\n"
      << "  jobs: submitted=" << submitted << " terminal=" << completed
      << " pending=" << submitted - completed << "\n"
      << "  tasks executed=" << total_tasks
      << " slab_blocks=" << total_blocks << "\n"
      << "  admission queue: depth=" << qs.depth << " peak=" << qs.peak_depth
      << " accepted=" << qs.accepted << " popped=" << qs.popped << "\n"
      // order: relaxed — a diagnostic reading; parked workers beside a
      // non-empty queue are what a lost wake-up looks like.
      << "  parked workers=" << sleepers_.load(std::memory_order_relaxed)
      << "\n";
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    const WorkerSnapshot& s = snaps[i];
    out << "  worker " << i << ": deque~=" << s.deque_hint
        << " tasks=" << s.tasks_executed << " cancelled=" << s.tasks_cancelled
        << " steals=" << s.successful_steals << "/" << s.steal_attempts
        << " admissions=" << s.admissions << " parks=" << s.parks
        << " slab_blocks=" << s.slab_blocks
        << " remote_frees=" << s.remote_frees << "\n";
  }
  constexpr std::size_t kMaxJobsListed = 16;
  std::size_t listed = 0, unfinished = 0;
  {
    MutexLock lock(done_mu_);
    for (const JobHandle& job : live_jobs_) {
      if (job->finished()) continue;
      ++unfinished;
      if (listed >= kMaxJobsListed) continue;
      ++listed;
      out << "  job " << job->id() << ": outcome="
          << to_string(job->outcome()) << " pending=" << job->pending()
          << " age="
          << std::chrono::duration<double>(Clock::now() - job->submit_time())
                 .count()
          << "s";
      if (job->has_deadline())
        out << " deadline_in="
            << std::chrono::duration<double>(job->deadline() - Clock::now())
                   .count()
            << "s";
      out << "\n";
    }
  }
  if (unfinished > listed)
    out << "  ... and " << unfinished - listed << " more unfinished job(s)\n";
  return out.str();
}

void ThreadPool::watchdog_main(std::chrono::milliseconds interval) {
  std::uint64_t last_tasks = stats().tasks_executed;
  // Plain timed-wait loop instead of wait_for-with-predicate: the lambda
  // body would read watchdog_stop_ where the thread-safety analysis cannot
  // prove the lock is held.  A spurious wake (`!timed_out`) re-arms a full
  // interval — harmless drift for a stall detector.
  MutexLock lock(watchdog_mu_);
  while (!watchdog_stop_) {
    const bool timed_out = watchdog_cv_.wait_for(watchdog_mu_, interval);
    if (watchdog_stop_) break;
    if (!timed_out) continue;
    // One coherent snapshot per tick: the progress decision and the value
    // carried to the next tick come from the same pass over the workers.
    const std::uint64_t tasks = stats().tasks_executed;
    const bool pending = jobs_completed_.load(std::memory_order_acquire) <
                         jobs_submitted_.load(std::memory_order_acquire);
    if (pending && tasks == last_tasks) {
      // order: relaxed — diagnostic tally; readers need no ordering.
      watchdog_dumps_.fetch_add(1, std::memory_order_relaxed);
      std::ostringstream header;
      header << "pjsched watchdog: no task executed for "
             << interval.count() << " ms with pending jobs\n";
      const std::string report = header.str() + dump_state();
      lock.unlock();  // never hold our mutex across the user callback
      if (watchdog_sink_)
        watchdog_sink_(report);
      else
        std::cerr << report;
      lock.lock();
    }
    last_tasks = tasks;
  }
}

void ThreadPool::execute(Task* task, unsigned worker, WorkerState& w) {
  Job* job = task->job;
  if (injector_) {
    const auto stall = injector_->worker_stall(worker);
    if (stall.count() > 0) std::this_thread::sleep_for(stall);
  }
  // Deadline enforcement pays its clock read only for jobs that have one —
  // Clock::now() per task is real money at fine grain.
  if (job->has_deadline() && !job->cancelled() &&
      job->deadline_passed(Clock::now()) &&
      job->try_cancel(JobOutcome::kDeadlineExpired))
    // order: relaxed — diagnostic tally; try_cancel's CAS is the
    // synchronizing outcome transition.
    jobs_deadline_expired_.fetch_add(1, std::memory_order_relaxed);
  if (job->cancelled()) {
    // Skip the body; just drain the pending count below.
    detail::WorkerCounters::bump(w.counters.tasks_cancelled);
  } else {
    try {
      if (injector_) {
        if (const auto fault = injector_->next_task_fault())
          throw FaultInjectedError(*fault);
      }
      TaskContext ctx(this, &w, worker, job);
      task->fn(ctx);
    } catch (const JobCancelledError&) {
      // wait_help unwound the body because the job was already cancelled;
      // the cancellation cause is recorded elsewhere.
    } catch (const std::exception& e) {
      if (job->try_cancel(JobOutcome::kFailed)) {
        job->set_error(e.what());
        // order: relaxed — diagnostic tally; the CAS above synchronizes.
        jobs_failed_.fetch_add(1, std::memory_order_relaxed);
      }
    } catch (...) {
      if (job->try_cancel(JobOutcome::kFailed)) {
        job->set_error("task body threw a non-std::exception");
        // order: relaxed — diagnostic tally; the CAS above synchronizes.
        jobs_failed_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  // Always signal the task's join — on the skip path and the throw paths
  // too — so a WaitGroup drains even under cancellation and wait_help can
  // safely unwind only once no sibling references it (see Task::wg).
  if (task->wg != nullptr) task->wg->done();
  // Recycle the slot: a local push when this worker allocated the task, a
  // lock-free reclaim push to the owner (another worker, or the external
  // submission pool) otherwise.
  TaskPool::release(task, &w.task_pool);
  detail::WorkerCounters::bump(w.counters.tasks_executed);
  finish_job(job, worker);
}

Task* ThreadPool::try_steal(unsigned thief, WorkerState& me) {
  const unsigned n = workers();
  if (n <= 1) return nullptr;
  // Bounded multi-probe round: start at a random victim, rotate through up
  // to kStealProbes of them.  One rng draw per round (not per probe).
  const unsigned probes = std::min(kStealProbes, n - 1);
  unsigned victim = static_cast<unsigned>(me.rng.uniform_int(n - 1));
  if (victim >= thief) ++victim;
  for (unsigned p = 0; p < probes; ++p) {
    Task* task = nullptr;
    if (workers_[victim]->deque.steal(task)) {
      // Pushes onto a non-empty deque wake nobody, so a thief that leaves
      // work behind passes the wake on: a burst of spawns reaches every
      // parked worker one steal at a time.  A hint, not a protocol step —
      // the victim still runs whatever nobody takes.
      // order: relaxed — no publication rides on this read; a stale value
      // costs one wake or one missed helper, never a task.
      if (sleepers_.load(std::memory_order_relaxed) != 0 &&
          !workers_[victim]->deque.empty_hint())
        wake(/*all=*/false);
      return task;
    }
    ++victim;
    if (victim == thief) ++victim;
    if (victim >= n) victim = thief == 0 ? 1 : 0;
  }
  return nullptr;
}

bool ThreadPool::try_run_one(unsigned index, WorkerState& w, bool helping) {
  Task* task = nullptr;
  if (w.deque.pop(task)) {
    w.fail_count = 0;
    execute(task, index, w);
    return true;
  }

  // Admission is policy-gated: only after k consecutive failed steal
  // *rounds* (immediately when k == 0).  Helpers joining a WaitGroup never
  // admit — starting a brand-new job in the middle of a join would delay
  // the join arbitrarily.
  if (!helping && w.fail_count >= steal_k_) {
    task = admission_.try_pop();
    if (task != nullptr) {
      detail::WorkerCounters::bump(w.counters.admissions);
      w.fail_count = 0;
      if (injector_) {
        const auto delay = injector_->admission_delay();
        if (delay.count() > 0) std::this_thread::sleep_for(delay);
      }
      execute(task, index, w);
      return true;
    }
  }

  detail::WorkerCounters::bump(w.counters.steal_attempts);
  task = try_steal(index, w);
  if (task != nullptr) {
    detail::WorkerCounters::bump(w.counters.successful_steals);
    w.fail_count = 0;
    execute(task, index, w);
    return true;
  }
  ++w.fail_count;
  return false;
}

void ThreadPool::worker_main(unsigned index) {
  WorkerState& w = *workers_[index];
  unsigned spin_budget = kSpinRoundsStep;
  unsigned idle_rounds = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    if (try_run_one(index, w, /*helping=*/false)) {
      if (idle_rounds > 0)
        spin_budget = std::min(spin_budget + kSpinRoundsStep, kSpinRoundsMax);
      idle_rounds = 0;
      continue;
    }
    // A failed round leaves fail_count > steal_k_ only when it was allowed
    // to admit and still found the admission queue empty and nothing to
    // steal.  Only such a round may end in a park: steal-k-first's window
    // keeps spinning however small the budget.
    if (++idle_rounds < spin_budget || w.fail_count <= steal_k_) {
      cpu_relax();
      continue;
    }
    spin_budget = std::max(spin_budget / 2, kSpinRoundsMin);
    park(w);
    idle_rounds = 0;
  }
}

void ThreadPool::park(WorkerState& w) {
  // order: seq_cst RMW, then a seq_cst fence — the announcement is ordered
  // before the re-check's loads below, and wake_one_if_parked() orders
  // each publication before its read of sleepers_, so either the re-check
  // sees the work or the waker sees this sleeper.
  sleepers_.fetch_add(1, std::memory_order_seq_cst);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  std::uint64_t epoch = 0;
  {
    MutexLock lock(idle_mu_);
    epoch = idle_epoch_;
  }
  // Outside idle_mu_, which is a leaf: admission_.empty() takes
  // AdmissionQueue::mu_.  stop_ counts as visible work: a shutdown whose
  // epoch bump came before the snapshot above will not bump it again.
  bool visible = stop_.load(std::memory_order_acquire) || !admission_.empty();
  for (std::size_t i = 0; !visible && i < workers_.size(); ++i)
    visible = !workers_[i]->deque.empty_hint();
  if (!visible) {
    MutexLock lock(idle_mu_);
    if (idle_epoch_ == epoch) {
      detail::WorkerCounters::bump(w.counters.parks);
      while (idle_epoch_ == epoch) idle_cv_.wait(idle_mu_);
    }
  }
  // order: seq_cst — pairs with the announcement above.
  sleepers_.fetch_sub(1, std::memory_order_seq_cst);
}

void ThreadPool::wake_one_if_parked() {
  // order: seq_cst fence, then a relaxed load — the fence orders the
  // caller's publication (a deque or admission push) before the read and
  // pairs with the fence in park(); the load itself needs no ordering.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_relaxed) != 0) wake(/*all=*/false);
}

void ThreadPool::wake(bool all) {
  {
    MutexLock lock(idle_mu_);
    ++idle_epoch_;
  }
  if (all)
    idle_cv_.notify_all();
  else
    idle_cv_.notify_one();
}

}  // namespace pjsched::runtime
