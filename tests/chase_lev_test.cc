// Tests for the Chase–Lev work-stealing deque
// (src/runtime/chase_lev_deque.h): single-threaded LIFO/FIFO semantics,
// growth, and multi-threaded owner/thief stress with full accounting.
#include "src/runtime/chase_lev_deque.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

namespace pjsched::runtime {
namespace {

using IntDeque = ChaseLevDeque<std::intptr_t>;

TEST(ChaseLevTest, OwnerPopIsLifo) {
  IntDeque d;
  d.push(1);
  d.push(2);
  d.push(3);
  std::intptr_t v = 0;
  ASSERT_TRUE(d.pop(v));
  EXPECT_EQ(v, 3);
  ASSERT_TRUE(d.pop(v));
  EXPECT_EQ(v, 2);
  ASSERT_TRUE(d.pop(v));
  EXPECT_EQ(v, 1);
  EXPECT_FALSE(d.pop(v));
}

TEST(ChaseLevTest, StealIsFifo) {
  IntDeque d;
  d.push(1);
  d.push(2);
  d.push(3);
  std::intptr_t v = 0;
  ASSERT_TRUE(d.steal(v));
  EXPECT_EQ(v, 1);
  ASSERT_TRUE(d.steal(v));
  EXPECT_EQ(v, 2);
  ASSERT_TRUE(d.steal(v));
  EXPECT_EQ(v, 3);
  EXPECT_FALSE(d.steal(v));
}

TEST(ChaseLevTest, MixedOwnerAndThiefEnds) {
  IntDeque d;
  for (std::intptr_t i = 1; i <= 4; ++i) d.push(i);
  std::intptr_t v = 0;
  ASSERT_TRUE(d.steal(v));   // oldest
  EXPECT_EQ(v, 1);
  ASSERT_TRUE(d.pop(v));     // newest
  EXPECT_EQ(v, 4);
  ASSERT_TRUE(d.steal(v));
  EXPECT_EQ(v, 2);
  ASSERT_TRUE(d.pop(v));
  EXPECT_EQ(v, 3);
  EXPECT_TRUE(d.empty_hint());
}

TEST(ChaseLevTest, GrowthPreservesContents) {
  IntDeque d(4);  // tiny initial capacity forces several growths
  constexpr std::intptr_t kN = 10000;
  for (std::intptr_t i = 0; i < kN; ++i) d.push(i);
  EXPECT_EQ(d.size_hint(), static_cast<std::size_t>(kN));
  // Steal drains in FIFO order across buffer generations.
  std::intptr_t v = 0;
  for (std::intptr_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(d.steal(v));
    ASSERT_EQ(v, i);
  }
  EXPECT_FALSE(d.steal(v));
}

TEST(ChaseLevTest, InterleavedPushPop) {
  IntDeque d;
  std::intptr_t v = 0;
  for (int round = 0; round < 1000; ++round) {
    d.push(round);
    d.push(round + 1000000);
    ASSERT_TRUE(d.pop(v));
    EXPECT_EQ(v, round + 1000000);
  }
  EXPECT_EQ(d.size_hint(), 1000u);
}

// The owner's fast path: once pop() finds the deque empty it returns false
// without the fence until the owner's next push(), which must clear it.
// Here the empty finding comes from the top > bottom branch; the lost
// last-element CAS sets it in LastElementRace.
TEST(ChaseLevTest, PopAfterEmptyFindingSeesTheNextPush) {
  IntDeque d;
  std::intptr_t v = 0;
  EXPECT_FALSE(d.pop(v));  // a fresh deque is empty
  d.push(1);
  ASSERT_TRUE(d.steal(v));
  EXPECT_EQ(v, 1);
  EXPECT_FALSE(d.pop(v));  // a thief emptied it: top > bottom
  d.push(7);
  ASSERT_TRUE(d.pop(v));
  EXPECT_EQ(v, 7);
  d.push(8);
  d.push(9);
  ASSERT_TRUE(d.steal(v));
  EXPECT_EQ(v, 8);
  ASSERT_TRUE(d.pop(v));
  EXPECT_EQ(v, 9);
  EXPECT_FALSE(d.pop(v));
  EXPECT_FALSE(d.steal(v));
}

// Concurrency stress: one owner pushes/pops while thieves steal; every
// pushed value must be consumed exactly once.
TEST(ChaseLevStressTest, OwnerVsThievesExactlyOnce) {
  constexpr int kThieves = 3;
  constexpr std::intptr_t kItems = 20000;
  IntDeque d(8);

  std::vector<std::vector<std::intptr_t>> stolen(kThieves);
  std::vector<std::intptr_t> popped;
  std::atomic<bool> done{false};
  std::atomic<bool> any_stolen{false};

  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&, t] {
      std::intptr_t v = 0;
      while (!done.load(std::memory_order_acquire)) {
        if (d.steal(v)) {
          stolen[t].push_back(v);
          any_stolen.store(true, std::memory_order_relaxed);
        }
      }
      // Final drain so nothing is left behind.
      while (d.steal(v)) stolen[t].push_back(v);
    });
  }

  // Owner: push all items, popping a few along the way.
  std::intptr_t v = 0;
  for (std::intptr_t i = 0; i < kItems; ++i) {
    d.push(i);
    if (i % 3 == 0 && d.pop(v)) popped.push_back(v);
  }
  // Give the thieves a bounded chance to take something before the final
  // drain, so the check below does not hinge on when they were scheduled.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!any_stolen.load(std::memory_order_relaxed) &&
         std::chrono::steady_clock::now() < give_up)
    std::this_thread::yield();
  while (d.pop(v)) popped.push_back(v);
  done.store(true, std::memory_order_release);
  for (auto& th : thieves) th.join();

  std::vector<std::intptr_t> all = popped;
  for (const auto& s : stolen) all.insert(all.end(), s.begin(), s.end());
  ASSERT_EQ(all.size(), static_cast<std::size_t>(kItems));
  std::set<std::intptr_t> unique(all.begin(), all.end());
  EXPECT_EQ(unique.size(), static_cast<std::size_t>(kItems));
  // Exactly-once alone would pass with a steal() that always fails: the
  // owner's final drain pops everything.
  EXPECT_LT(popped.size(), static_cast<std::size_t>(kItems));
}

// Concurrency stress focused on the pop/steal race over the last element.
TEST(ChaseLevStressTest, LastElementRace) {
  constexpr int kRounds = 5000;
  IntDeque d;
  std::atomic<int> phase{0};
  std::atomic<int> stolen_count{0};
  std::atomic<int> popped_count{0};
  std::atomic<bool> stop{false};

  std::thread thief([&] {
    std::intptr_t v = 0;
    int last_seen = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const int p = phase.load(std::memory_order_acquire);
      if (p > last_seen) {
        if (d.steal(v)) stolen_count.fetch_add(1);
        last_seen = p;
      }
    }
  });

  std::intptr_t v = 0;
  for (int i = 0; i < kRounds; ++i) {
    d.push(i);
    phase.fetch_add(1, std::memory_order_release);
    if (d.pop(v)) popped_count.fetch_add(1);
  }
  stop.store(true, std::memory_order_release);
  thief.join();
  // Drain any leftovers the thief skipped.
  while (d.pop(v)) popped_count.fetch_add(1);

  EXPECT_EQ(stolen_count.load() + popped_count.load(), kRounds);
}

}  // namespace
}  // namespace pjsched::runtime
