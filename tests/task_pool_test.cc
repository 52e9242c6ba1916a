// The runtime hot-path allocation machinery: InlineFn (small-buffer
// move-only callables), the TaskPool slab/freelist (local and cross-thread
// release paths), recycling under real spawn/steal/cancel churn, and the
// invariant that multi-probe stealing leaves steal-k admission *semantics*
// untouched — admissions count jobs, not probes, for every k.
#include "src/runtime/task_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/runtime/inline_fn.h"
#include "src/runtime/thread_pool.h"

namespace pjsched::runtime {
namespace {

// ---------------------------------------------------------------------------
// InlineFn

TEST(InlineFnTest, SmallCaptureStaysInline) {
  int a = 3, b = 4;
  InlineFn<int(int)> fn = [a, b](int x) { return a + b + x; };
  ASSERT_TRUE(static_cast<bool>(fn));
  EXPECT_TRUE(fn.is_inline());
  EXPECT_EQ(fn(10), 17);
}

TEST(InlineFnTest, CapacityBoundaryIsInline) {
  // Exactly kInlineCapacity bytes of capture must not allocate.
  struct Blob {
    unsigned char bytes[InlineFn<int()>::kInlineCapacity];
  };
  Blob blob{};
  blob.bytes[0] = 7;
  InlineFn<int()> fn = [blob] { return static_cast<int>(blob.bytes[0]); };
  EXPECT_TRUE(fn.is_inline());
  EXPECT_EQ(fn(), 7);
}

TEST(InlineFnTest, LargeCaptureFallsBackToHeap) {
  struct Big {
    unsigned char bytes[InlineFn<int()>::kInlineCapacity + 1];
  };
  Big big{};
  big.bytes[0] = 9;
  InlineFn<int()> fn = [big] { return static_cast<int>(big.bytes[0]); };
  ASSERT_TRUE(static_cast<bool>(fn));
  EXPECT_FALSE(fn.is_inline());
  EXPECT_EQ(fn(), 9);
}

TEST(InlineFnTest, MoveTransfersCallableAndEmptiesSource) {
  InlineFn<int()> src = [] { return 42; };
  InlineFn<int()> dst = std::move(src);
  EXPECT_FALSE(static_cast<bool>(src));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(dst));
  EXPECT_EQ(dst(), 42);

  InlineFn<int()> assigned;
  assigned = std::move(dst);
  EXPECT_FALSE(static_cast<bool>(dst));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(assigned(), 42);
}

TEST(InlineFnTest, MoveOnlyCapturesWork) {
  // std::function rejects this capture outright (it requires copyability).
  auto owned = std::make_unique<int>(31);
  InlineFn<int()> fn = [p = std::move(owned)] { return *p; };
  EXPECT_EQ(fn(), 31);
}

TEST(InlineFnTest, DestructionAndResetReleaseCapture) {
  auto tracked = std::make_shared<int>(1);
  std::weak_ptr<int> weak = tracked;
  {
    InlineFn<void()> fn = [keep = std::move(tracked)] {};
    EXPECT_FALSE(weak.expired());
    fn.reset();
    EXPECT_TRUE(weak.expired());
    EXPECT_FALSE(static_cast<bool>(fn));
  }

  auto tracked2 = std::make_shared<int>(2);
  std::weak_ptr<int> weak2 = tracked2;
  {
    InlineFn<void()> fn = [keep = std::move(tracked2)] {};
    EXPECT_FALSE(weak2.expired());
  }
  EXPECT_TRUE(weak2.expired());  // destructor path
}

// ---------------------------------------------------------------------------
// TaskPool (direct, single-threaded semantics)

TEST(TaskPoolTest, LocalReleaseRecyclesWithoutCarvingNewBlocks) {
  TaskPool pool;
  Job job(1, 1.0);
  // Far more allocate/release round-trips than one block holds: the slot
  // count must stay at one block because every release feeds the freelist.
  for (int i = 0; i < 10 * static_cast<int>(TaskPool::kBlockSize); ++i) {
    Task* task = pool.allocate(&job, TaskFn(), nullptr);
    ASSERT_NE(task, nullptr);
    EXPECT_EQ(task->job, &job);
    TaskPool::release(task, &pool);
  }
  EXPECT_EQ(pool.blocks_carved(), 1u);
  EXPECT_EQ(pool.remote_frees(), 0u);
}

TEST(TaskPoolTest, LiveTasksBeyondOneBlockCarveMore) {
  TaskPool pool;
  Job job(1, 1.0);
  std::vector<Task*> live;
  for (std::size_t i = 0; i < TaskPool::kBlockSize + 1; ++i)
    live.push_back(pool.allocate(&job, TaskFn(), nullptr));
  EXPECT_EQ(pool.blocks_carved(), 2u);
  for (Task* t : live) TaskPool::release(t, &pool);
}

TEST(TaskPoolTest, RemoteFreesDrainIntoOwnerFreelist) {
  TaskPool owner;
  Job job(1, 1.0);
  // Exhaust the first block so the freelist is empty, then free everything
  // through the remote path (local = nullptr, as a non-worker thread would).
  std::vector<Task*> live;
  for (std::size_t i = 0; i < TaskPool::kBlockSize; ++i)
    live.push_back(owner.allocate(&job, TaskFn(), nullptr));
  EXPECT_EQ(owner.blocks_carved(), 1u);
  for (Task* t : live) TaskPool::release(t, /*local=*/nullptr);
  EXPECT_EQ(owner.remote_frees(), TaskPool::kBlockSize);

  // The next owner-side allocations must drain the reclaim stack instead of
  // carving block two.
  live.clear();
  for (std::size_t i = 0; i < TaskPool::kBlockSize; ++i)
    live.push_back(owner.allocate(&job, TaskFn(), nullptr));
  EXPECT_EQ(owner.blocks_carved(), 1u);
  for (Task* t : live) TaskPool::release(t, &owner);
}

TEST(TaskPoolTest, ReleaseToDifferentPoolTakesRemotePath) {
  TaskPool owner;
  TaskPool other;
  Job job(1, 1.0);
  Task* task = owner.allocate(&job, TaskFn(), nullptr);
  TaskPool::release(task, /*local=*/&other);  // not the owner → reclaim CAS
  EXPECT_EQ(owner.remote_frees(), 1u);
  EXPECT_EQ(other.remote_frees(), 0u);
  // Owner reuses the reclaimed slot rather than carving.
  Task* again = owner.allocate(&job, TaskFn(), nullptr);
  EXPECT_EQ(owner.blocks_carved(), 1u);
  TaskPool::release(again, &owner);
}

// ---------------------------------------------------------------------------
// Recycling under real pool churn (the test CI runs under ASan and TSan)

TEST(TaskPoolStressTest, SpawnStealCancelChurnRecyclesSlots) {
  ThreadPool pool({.workers = 4, .steal_k = 0, .seed = 7});
  std::atomic<std::uint64_t> sum{0};

  // Fine-grain fan-outs: lots of spawn/execute/release churn, with a slice
  // of the jobs carrying an already-expired deadline so the cancellation
  // release path (skipped tasks) recycles slots too.
  constexpr int kJobs = 64;
  constexpr std::size_t kGrains = 256;
  for (int j = 0; j < kJobs; ++j) {
    SubmitOptions options;
    if (j % 8 == 7) options.deadline = std::chrono::nanoseconds(1);
    pool.submit(
        [&sum](TaskContext& ctx) {
          parallel_for(ctx, std::size_t{0}, kGrains, 1,
                       [&sum](std::size_t lo, std::size_t hi) {
                         for (std::size_t i = lo; i < hi; ++i)
                           sum.fetch_add(i, std::memory_order_relaxed);
                       });
        },
        std::move(options));
  }
  pool.wait_all();

  const PoolStats stats = pool.stats();
  // Every job ended in a terminal outcome and every task was executed,
  // skipped-as-cancelled, or never materialized — but the slab must have
  // recycled: the total slots ever carved stay far below the task count.
  EXPECT_GT(stats.tasks_executed, static_cast<std::uint64_t>(kJobs));
  EXPECT_LT(stats.task_slab_blocks * TaskPool::kBlockSize,
            stats.tasks_executed);
  // Root tasks are carved in the external submission pool and released by
  // whichever worker runs them, so the cross-thread reclaim path is
  // exercised on every run.
  EXPECT_GT(stats.task_remote_frees, 0u);
}

// ---------------------------------------------------------------------------
// Steal-k admission semantics are independent of the steal-probe count

TEST(StealKAdmissionTest, AdmissionCountsUnchangedByMultiProbeStealing) {
  // One admission per submitted job, for every k: multi-probe stealing
  // changes how fast a worker's fail_count grows per *round*, never how
  // many jobs leave the global FIFO.  The counts must be exactly the job
  // count — and therefore equal across k — or the paper's admit-first /
  // steal-k-first distinction has been silently altered.
  constexpr int kJobs = 100;
  for (unsigned k : {0u, 4u, 16u}) {
    ThreadPool pool({.workers = 4, .steal_k = k, .seed = 11});
    std::atomic<int> done{0};
    for (int j = 0; j < kJobs; ++j) {
      pool.submit([&done](TaskContext& ctx) {
        WaitGroup wg;
        for (int c = 0; c < 4; ++c)
          ctx.spawn([&done](TaskContext&) {
            done.fetch_add(1, std::memory_order_relaxed);
          }, wg);
        ctx.wait_help(wg);
      });
    }
    pool.wait_all();

    const PoolStats stats = pool.stats();
    EXPECT_EQ(stats.admissions, static_cast<std::uint64_t>(kJobs))
        << "steal_k=" << k;
    EXPECT_EQ(done.load(), kJobs * 4) << "steal_k=" << k;
    EXPECT_EQ(pool.recorder().outcome_counts().completed,
              static_cast<std::uint64_t>(kJobs))
        << "steal_k=" << k;
    // Steal-k-first's definition as a count: every admission follows at
    // least k failed rounds since fail_count's last reset, and a failed
    // round bumps steal_attempts without bumping successful_steals.
    EXPECT_GE(stats.steal_attempts - stats.successful_steals,
              std::uint64_t{k} * stats.admissions)
        << "steal_k=" << k;
  }
}

TEST(StealKAdmissionTest, OneWorkerFailsExactlyKRoundsPerAdmission) {
  // One worker, and a first job that holds it until every job is queued:
  // from then on each admission follows exactly k failed rounds (a lone
  // worker has no victim, so every round that neither pops nor admits
  // fails).  The failed rounds beyond k per admission are idle rounds
  // before the first admission and after the last one, and a worker parks
  // once its spin budget is spent, so they stay under two budgets at their
  // cap (kSpinRoundsMax = 256 in thread_pool.cc).
  constexpr int kJobs = 200;
  constexpr std::uint64_t kIdleRoundsMax = 2 * 256;
  for (unsigned k : {0u, 4u, 16u}) {
    ThreadPool pool({.workers = 1, .steal_k = k, .seed = 13});
    std::atomic<bool> all_queued{false};
    pool.submit([&all_queued](TaskContext&) {
      while (!all_queued.load(std::memory_order_acquire))
        std::this_thread::yield();
    });
    for (int j = 1; j < kJobs; ++j) pool.submit([](TaskContext&) {});
    all_queued.store(true, std::memory_order_release);
    pool.wait_all();

    const PoolStats stats = pool.stats();
    ASSERT_EQ(stats.admissions, static_cast<std::uint64_t>(kJobs))
        << "steal_k=" << k;
    EXPECT_EQ(stats.successful_steals, 0u) << "steal_k=" << k;
    const std::uint64_t failed =
        stats.steal_attempts - stats.successful_steals;
    const std::uint64_t window = std::uint64_t{k} * stats.admissions;
    EXPECT_GE(failed, window) << "steal_k=" << k;
    EXPECT_LE(failed, window + kIdleRoundsMax) << "steal_k=" << k;
  }
}

}  // namespace
}  // namespace pjsched::runtime
