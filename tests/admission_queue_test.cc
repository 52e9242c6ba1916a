// Unit tests for the bounded AdmissionQueue (src/runtime/admission_queue.h):
// capacity enforcement, the three backpressure policies, and close()
// semantics (the shutdown barrier).
#include "src/runtime/admission_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace pjsched::runtime {
namespace {

Task* make_task() { return new Task{nullptr, {}}; }

TEST(AdmissionQueueTest, UnboundedAcceptsEverything) {
  AdmissionQueue q;  // capacity 0 = unbounded
  std::vector<Task*> tasks;
  for (int i = 0; i < 100; ++i) {
    Task* evicted = nullptr;
    Task* t = make_task();
    tasks.push_back(t);
    EXPECT_EQ(q.push(t, &evicted), AdmissionQueue::PushResult::kAccepted);
    EXPECT_EQ(evicted, nullptr);
  }
  EXPECT_EQ(q.size(), 100u);
  for (std::size_t i = 0; i < tasks.size(); ++i)
    EXPECT_EQ(q.try_pop(), tasks[i]);  // FIFO order
  EXPECT_EQ(q.try_pop(), nullptr);
  for (Task* t : tasks) delete t;
}

TEST(AdmissionQueueTest, RejectNewestDropsTheNewSubmission) {
  AdmissionQueue q(2, BackpressurePolicy::kRejectNewest);
  Task* a = make_task();
  Task* b = make_task();
  Task* c = make_task();
  Task* evicted = nullptr;
  EXPECT_EQ(q.push(a, &evicted), AdmissionQueue::PushResult::kAccepted);
  EXPECT_EQ(q.push(b, &evicted), AdmissionQueue::PushResult::kAccepted);
  EXPECT_EQ(q.push(c, &evicted), AdmissionQueue::PushResult::kRejected);
  EXPECT_EQ(evicted, nullptr);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.try_pop(), a);
  EXPECT_EQ(q.try_pop(), b);
  delete a;
  delete b;
  delete c;  // rejected: caller kept ownership
}

TEST(AdmissionQueueTest, ShedOldestEvictsTheHead) {
  AdmissionQueue q(2, BackpressurePolicy::kShedOldest);
  Task* a = make_task();
  Task* b = make_task();
  Task* c = make_task();
  Task* evicted = nullptr;
  q.push(a, &evicted);
  q.push(b, &evicted);
  EXPECT_EQ(q.push(c, &evicted), AdmissionQueue::PushResult::kAccepted);
  EXPECT_EQ(evicted, a);  // oldest evicted, caller takes ownership
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.try_pop(), b);
  EXPECT_EQ(q.try_pop(), c);
  delete a;
  delete b;
  delete c;
}

TEST(AdmissionQueueTest, BlockWaitsUntilAPopFreesSpace) {
  AdmissionQueue q(1, BackpressurePolicy::kBlock);
  Task* a = make_task();
  Task* b = make_task();
  Task* evicted = nullptr;
  q.push(a, &evicted);
  std::atomic<bool> pushed{false};
  std::thread pusher([&] {
    Task* ev = nullptr;
    EXPECT_EQ(q.push(b, &ev), AdmissionQueue::PushResult::kAccepted);
    pushed.store(true);
  });
  // The pusher must be blocked while the queue is full.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(q.try_pop(), a);
  pusher.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.try_pop(), b);
  delete a;
  delete b;
}

TEST(AdmissionQueueTest, CloseUnblocksAndRejectsBlockedPushers) {
  AdmissionQueue q(1, BackpressurePolicy::kBlock);
  Task* a = make_task();
  Task* b = make_task();
  Task* evicted = nullptr;
  q.push(a, &evicted);
  std::atomic<int> result{-1};
  std::thread pusher([&] {
    Task* ev = nullptr;
    result.store(q.push(b, &ev) == AdmissionQueue::PushResult::kRejected ? 1
                                                                         : 0);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  pusher.join();
  EXPECT_EQ(result.load(), 1);
  // Queued tasks stay poppable after close (shutdown drains them).
  EXPECT_EQ(q.try_pop(), a);
  delete a;
  delete b;
}

TEST(AdmissionQueueTest, CloseRejectsAllFuturePushes) {
  AdmissionQueue unbounded;
  unbounded.close();
  Task* t = make_task();
  Task* evicted = nullptr;
  EXPECT_EQ(unbounded.push(t, &evicted),
            AdmissionQueue::PushResult::kRejected);
  delete t;
}

TEST(AdmissionQueueTest, StatsCountEveryOutcome) {
  AdmissionQueue q(2, BackpressurePolicy::kShedOldest);
  Task* a = make_task();
  Task* b = make_task();
  Task* c = make_task();
  Task* evicted = nullptr;
  q.push(a, &evicted);
  q.push(b, &evicted);
  q.push(c, &evicted);  // evicts a
  EXPECT_EQ(evicted, a);
  EXPECT_EQ(q.try_pop(), b);
  AdmissionQueue::Stats s = q.stats();
  EXPECT_EQ(s.accepted, 3u);
  EXPECT_EQ(s.shed, 1u);
  EXPECT_EQ(s.popped, 1u);
  EXPECT_EQ(s.depth, 1u);
  EXPECT_EQ(s.peak_depth, 2u);
  EXPECT_EQ(s.rejected_full, 0u);
  q.close();
  Task* d = make_task();
  EXPECT_EQ(q.push(d, &evicted), AdmissionQueue::PushResult::kRejected);
  EXPECT_EQ(q.stats().rejected_closed, 1u);
  EXPECT_EQ(q.try_pop(), c);
  delete a;
  delete b;
  delete c;
  delete d;
}

TEST(AdmissionQueueTest, StatsSnapshotIsNeverTorn) {
  // Shed accounting race regression: pushers continuously shed the oldest
  // while a reader snapshots stats(); in every snapshot the books must
  // balance exactly — accepted == popped + shed + depth.  Before the
  // queue kept its own accounting under one lock, the equivalent counters
  // lived in separate atomics and a concurrent dump could observe a shed
  // without the accept that caused it.
  AdmissionQueue q(4, BackpressurePolicy::kShedOldest);
  std::atomic<bool> stop{false};
  std::vector<Task*> all_tasks;
  std::mutex all_mu;
  std::thread pusher([&] {
    for (int i = 0; i < 3000; ++i) {
      Task* t = make_task();
      {
        std::lock_guard<std::mutex> lock(all_mu);
        all_tasks.push_back(t);
      }
      Task* ev = nullptr;
      q.push(t, &ev);
    }
    stop.store(true);
  });
  std::thread popper([&] {
    while (!stop.load()) q.try_pop();
  });
  std::uint64_t snapshots = 0;
  do {  // at least one snapshot even if the pusher wins the race outright
    const AdmissionQueue::Stats s = q.stats();
    ASSERT_EQ(s.accepted, s.popped + s.shed + s.depth);
    ASSERT_LE(s.depth, s.peak_depth);
    ++snapshots;
  } while (!stop.load());
  pusher.join();
  popper.join();
  EXPECT_GT(snapshots, 0u);
  const AdmissionQueue::Stats s = q.stats();
  EXPECT_EQ(s.accepted, s.popped + s.shed + s.depth);
  for (Task* t : all_tasks) delete t;
}

}  // namespace
}  // namespace pjsched::runtime
