// Unit tests for the AdmissionQueue (src/runtime/admission_queue.h): FIFO
// order, close() semantics (the shutdown barrier), and books that balance
// in every snapshot.
#include "src/runtime/admission_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace pjsched::runtime {
namespace {

Task* make_task() { return new Task{nullptr, {}}; }

TEST(AdmissionQueueTest, UnboundedAcceptsEverything) {
  AdmissionQueue q;
  std::vector<Task*> tasks;
  for (int i = 0; i < 100; ++i) {
    Task* t = make_task();
    tasks.push_back(t);
    EXPECT_TRUE(q.push(t));
  }
  EXPECT_EQ(q.size(), 100u);
  for (std::size_t i = 0; i < tasks.size(); ++i)
    EXPECT_EQ(q.try_pop(), tasks[i]);  // FIFO order
  EXPECT_EQ(q.try_pop(), nullptr);
  for (Task* t : tasks) delete t;
}

TEST(AdmissionQueueTest, CloseRejectsAllFuturePushes) {
  AdmissionQueue q;
  Task* queued = make_task();
  EXPECT_TRUE(q.push(queued));
  q.close();
  Task* t = make_task();
  EXPECT_FALSE(q.push(t));  // the caller keeps `t`
  // Queued tasks stay poppable after close (shutdown drains them).
  EXPECT_EQ(q.try_pop(), queued);
  EXPECT_EQ(q.try_pop(), nullptr);
  delete queued;
  delete t;
}

TEST(AdmissionQueueTest, StatsCountEveryOutcome) {
  AdmissionQueue q;
  Task* a = make_task();
  Task* b = make_task();
  Task* c = make_task();
  Task* d = make_task();
  q.push(a);
  q.push(b);
  EXPECT_EQ(q.try_pop(), a);
  q.push(c);
  AdmissionQueue::Stats s = q.stats();
  EXPECT_EQ(s.accepted, 3u);
  EXPECT_EQ(s.popped, 1u);
  EXPECT_EQ(s.depth, 2u);
  EXPECT_EQ(s.peak_depth, 2u);
  q.close();
  EXPECT_FALSE(q.push(d));
  s = q.stats();  // a refused push counts nowhere
  EXPECT_EQ(s.accepted, 3u);
  EXPECT_EQ(s.depth, 2u);
  EXPECT_EQ(q.try_pop(), b);
  EXPECT_EQ(q.try_pop(), c);
  s = q.stats();
  EXPECT_EQ(s.popped, 3u);
  EXPECT_EQ(s.depth, 0u);
  EXPECT_EQ(s.peak_depth, 2u);
  delete a;
  delete b;
  delete c;
  delete d;
}

TEST(AdmissionQueueTest, StatsSnapshotIsNeverTorn) {
  // A pusher and a popper race while this thread snapshots stats(); in
  // every snapshot the books must balance exactly — accepted == popped +
  // depth — because every counter comes from one lock hold.
  constexpr int kTasks = 3000;
  AdmissionQueue q;
  std::vector<Task*> tasks;
  for (int i = 0; i < kTasks; ++i) tasks.push_back(make_task());
  std::atomic<int> popped{0};
  std::thread pusher([&] {
    for (Task* t : tasks) q.push(t);
  });
  std::thread popper([&] {
    while (popped.load() < kTasks)
      if (q.try_pop() != nullptr) popped.fetch_add(1);
  });
  std::uint64_t snapshots = 0;
  do {  // at least one snapshot even if the others win the race outright
    const AdmissionQueue::Stats s = q.stats();
    ASSERT_EQ(s.accepted, s.popped + s.depth);
    ASSERT_LE(s.depth, s.peak_depth);
    ++snapshots;
  } while (popped.load() < kTasks);
  pusher.join();
  popper.join();
  EXPECT_GT(snapshots, 0u);
  const AdmissionQueue::Stats s = q.stats();
  EXPECT_EQ(s.accepted, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(s.popped, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(s.depth, 0u);
  for (Task* t : tasks) delete t;
}

}  // namespace
}  // namespace pjsched::runtime
