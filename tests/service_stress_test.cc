// Concurrency stress for the service layer, built to run under TSAN (it
// is part of the CI sanitizer regex): many threads push/pop/tick one
// TenantRouter while a flooding tenant and a well-behaved tenant share a
// live Daemon.  Assertions are structural — exact conservation of every
// record, no lost outcomes, forward progress for the well-behaved tenant —
// never timing-based.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/service/daemon.h"
#include "src/service/tenant_router.h"
#include "src/sim/rng.h"

namespace pjsched::service {
namespace {

using namespace std::chrono_literals;

TEST(ServiceStress, RouterConservationUnderConcurrentChurn) {
  RouterConfig config;
  config.capacity = 64;
  TenantRouter router(config);
  router.set_weight("w0", 3.0);

  constexpr int kPushers = 3;
  constexpr int kPushesEach = 4000;
  std::atomic<std::uint64_t> admitted{0}, shed_at_push{0}, evicted{0},
      popped{0};
  std::atomic<bool> stop_pop{false};

  std::vector<std::thread> threads;
  for (int p = 0; p < kPushers; ++p) {
    threads.emplace_back([&, p] {
      sim::Rng rng(100 + static_cast<std::uint64_t>(p));
      const std::string tenants[] = {"w0", "w1", "w2", "w3"};
      std::vector<ShedRecord> ev;
      for (int i = 0; i < kPushesEach; ++i) {
        JobRecord r;
        r.tenant = tenants[rng.uniform_int(4)];
        r.work = 1.0 + rng.uniform_double();
        ev.clear();
        ShedReason why{};
        if (router.push(std::move(r), &ev, &why) == PushOutcome::kAdmitted)
          admitted.fetch_add(1, std::memory_order_relaxed);
        else
          shed_at_push.fetch_add(1, std::memory_order_relaxed);
        evicted.fetch_add(ev.size(), std::memory_order_relaxed);
      }
    });
  }
  threads.emplace_back([&] {
    QueuedRecord out;
    while (!stop_pop.load(std::memory_order_acquire)) {
      if (router.try_pop(&out))
        popped.fetch_add(1, std::memory_order_relaxed);
      else
        std::this_thread::sleep_for(100us);
    }
  });
  threads.emplace_back([&] {
    sim::Rng rng(7);
    std::vector<ShedRecord> ev;
    while (!stop_pop.load(std::memory_order_acquire)) {
      ev.clear();
      router.tick(rng.bernoulli(0.02), &ev);
      evicted.fetch_add(ev.size(), std::memory_order_relaxed);
      std::this_thread::sleep_for(200us);
    }
  });

  for (int p = 0; p < kPushers; ++p) threads[p].join();
  stop_pop.store(true, std::memory_order_release);
  threads[kPushers].join();
  threads[kPushers + 1].join();

  // Drain the leftovers single-threaded, then the books must balance to
  // the record: every push is admitted or shed, every admitted record is
  // popped, evicted, or still queued (now zero).
  QueuedRecord out;
  while (router.try_pop(&out)) popped.fetch_add(1, std::memory_order_relaxed);

  const TenantRouter::Stats s = router.stats();
  EXPECT_EQ(s.depth, 0u);
  EXPECT_EQ(s.accepted, admitted.load());
  EXPECT_EQ(s.popped, popped.load());
  EXPECT_EQ(s.shed_fair_share + s.shed_queued, evicted.load());
  EXPECT_EQ(s.accepted, s.popped + s.shed_fair_share + s.shed_queued);
  EXPECT_EQ(admitted.load() + shed_at_push.load(),
            static_cast<std::uint64_t>(kPushers) * kPushesEach);
  EXPECT_GT(s.total_shed(), 0u);  // the churn actually overloaded the router
}

TEST(ServiceStress, FloodingTenantCannotStarveAWellBehavedOne) {
  DaemonConfig config;
  config.pool.workers = 2;
  config.router.capacity = 64;
  config.tick_interval = 1ms;
  config.ns_per_unit = 500.0;
  Daemon daemon(config);
  daemon.set_weight("nice", 1.0);
  daemon.set_weight("flood", 1.0);

  constexpr int kFloodRecords = 3000;
  constexpr int kNiceRecords = 40;
  std::thread flooder([&] {
    for (int i = 0; i < kFloodRecords; ++i) {
      JobRecord r;
      r.tenant = "flood";
      // 1 ms per job: each outlasts its submission many times over, so two
      // workers cannot keep pace however slow the build makes the feed.
      r.work = 2000;
      daemon.submit_record(std::move(r));
    }
  });
  std::thread citizen([&] {
    for (int i = 0; i < kNiceRecords; ++i) {
      JobRecord r;
      r.tenant = "nice";
      r.work = 2;
      daemon.submit_record(std::move(r));
      std::this_thread::sleep_for(1ms);
    }
  });
  flooder.join();
  citizen.join();

  // Everything resolves: no deadlock (drain returns true), no lost
  // records, and the flood was actually shed while the citizen made
  // progress.
  ASSERT_TRUE(daemon.drain(30000ms));
  const DaemonSnapshot snap = daemon.snapshot();
  const TenantCounters& flood = snap.tenants.at("flood");
  const TenantCounters& nice = snap.tenants.at("nice");
  // The premise of the shed checks below: the flood filled the router.
  ASSERT_EQ(snap.router.peak_depth, config.router.capacity);
  EXPECT_EQ(flood.submitted, static_cast<std::uint64_t>(kFloodRecords));
  EXPECT_EQ(nice.submitted, static_cast<std::uint64_t>(kNiceRecords));
  EXPECT_EQ(flood.submitted, flood.terminal());
  EXPECT_EQ(nice.submitted, nice.terminal());
  EXPECT_GT(flood.shed + flood.rejected, 0u);
  EXPECT_GT(nice.completed, 0u);
  // Weighted-fair service: the citizen's completion *rate* survives the
  // flood — it completes at least half of what it submitted even though
  // the flood outnumbers it 75:1.
  EXPECT_GE(nice.completed * 2, nice.submitted);
  EXPECT_EQ(snap.router.depth, 0u);
  EXPECT_EQ(snap.inflight, 0u);
}

}  // namespace
}  // namespace pjsched::service
