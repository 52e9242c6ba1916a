// Behavioral tests for the per-tenant admission router
// (src/service/tenant_router.*): weighted-fair pops, heaviest-over-share
// shedding with earliest-queued tie-break, the rung side effects at each
// ladder stage, the bound on departed tenants' entries, and the
// conservation law its stats() promises.
#include "src/service/tenant_router.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/rng.h"

namespace pjsched::service {
namespace {

JobRecord rec(const std::string& tenant, double work = 1.0) {
  JobRecord r;
  r.tenant = tenant;
  r.work = work;
  return r;
}

RouterConfig with_capacity(std::size_t capacity) {
  RouterConfig c;
  c.capacity = capacity;
  return c;
}

/// push() helper that asserts admission.
void admit(TenantRouter& router, const JobRecord& r) {
  std::vector<ShedRecord> ev;
  ShedReason why{};
  ASSERT_EQ(router.push(r, &ev, &why), PushOutcome::kAdmitted);
  ASSERT_TRUE(ev.empty());
}

void expect_conservation(const TenantRouter::Stats& s) {
  EXPECT_EQ(s.accepted, s.popped + s.shed_fair_share + s.shed_queued + s.depth);
}

TEST(TenantRouter, PopsWeightedFairAcrossTenants) {
  TenantRouter router(with_capacity(16));
  router.set_weight("a", 1.0);
  router.set_weight("b", 3.0);
  for (int i = 0; i < 4; ++i) admit(router, rec("a"));
  for (int i = 0; i < 4; ++i) admit(router, rec("b"));

  // Weighted fair queuing at weights 1:3 with unit work serves exactly
  // this order (ties broken by earliest queued record).
  const std::vector<std::string> expected = {"a", "b", "b", "b",
                                             "a", "b", "a", "a"};
  std::vector<std::string> order;
  QueuedRecord out;
  while (router.try_pop(&out)) order.push_back(out.record.tenant);
  EXPECT_EQ(order, expected);
  expect_conservation(router.stats());
}

TEST(TenantRouter, SetWeightTakesOnlyFinitePositiveWeights) {
  TenantRouter router(with_capacity(4));
  for (const double w : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()})
    EXPECT_THROW(router.set_weight("t", w), std::invalid_argument) << w;
}

TEST(TenantRouter, FifoWithinATenant) {
  TenantRouter router(with_capacity(16));
  for (int i = 0; i < 5; ++i) {
    JobRecord r = rec("only");
    r.client_id = static_cast<std::uint64_t>(i + 1);
    admit(router, r);
  }
  QueuedRecord out;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(router.try_pop(&out));
    EXPECT_EQ(out.record.client_id, static_cast<std::uint64_t>(i + 1));
  }
  EXPECT_FALSE(router.try_pop(&out));
}

TEST(TenantRouter, FullRouterShedsMostOverShareTenantHeadFirst) {
  TenantRouter router(with_capacity(4));
  JobRecord first = rec("heavy");
  first.client_id = 111;  // the earliest-queued record: the one evicted
  admit(router, first);
  admit(router, rec("heavy"));
  admit(router, rec("heavy"));
  admit(router, rec("light"));

  // Full.  light (1 queued, share 2) pushes: heavy (3 queued, share 2) is
  // the over-share tenant, so heavy's HEAD is evicted and light admitted.
  std::vector<ShedRecord> ev;
  ShedReason why{};
  EXPECT_EQ(router.push(rec("light"), &ev, &why), PushOutcome::kAdmitted);
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_EQ(ev[0].item.record.tenant, "heavy");
  EXPECT_EQ(ev[0].item.record.client_id, 111u);  // head drop, not tail
  EXPECT_EQ(ev[0].reason, ShedReason::kFairShare);

  const TenantRouter::Stats s = router.stats();
  EXPECT_EQ(s.shed_fair_share, 1u);
  EXPECT_EQ(s.depth, 4u);
  expect_conservation(s);
}

TEST(TenantRouter, SoleTenantOverOwnShareShedsItsArrival) {
  TenantRouter router(with_capacity(4));
  for (int i = 0; i < 4; ++i) admit(router, rec("solo"));
  // solo's share is the whole router; at 4 queued it is not over share, so
  // there is no victim — the arrival itself is shed.
  std::vector<ShedRecord> ev;
  ShedReason why{};
  EXPECT_EQ(router.push(rec("solo"), &ev, &why), PushOutcome::kShed);
  EXPECT_TRUE(ev.empty());
  EXPECT_EQ(why, ShedReason::kFairShare);
  const TenantRouter::Stats s = router.stats();
  EXPECT_EQ(s.shed_arrival_full, 1u);
  EXPECT_EQ(s.depth, 4u);
  expect_conservation(s);
}

TEST(TenantRouter, ShedNewRungDropsOverShareArrivalsAtTheDoor) {
  TenantRouter router(with_capacity(4));
  std::vector<ShedRecord> ev;
  for (int i = 0; i < 2; ++i) admit(router, rec("a"));
  for (int i = 0; i < 2; ++i) admit(router, rec("b"));

  // One stalled tick escalates normal -> shed-new immediately.
  ASSERT_EQ(router.tick(/*stalled=*/true, &ev), Rung::kShedNew);
  ASSERT_TRUE(ev.empty());

  // a and b (2 queued each, share 2) would go over share: shed at ingest.
  ShedReason why{};
  EXPECT_EQ(router.push(rec("a"), &ev, &why), PushOutcome::kShed);
  EXPECT_EQ(why, ShedReason::kShedNew);
  // A fresh tenant under its share is still served normally — the router
  // is full (depth 4), so admission evicts from the most-loaded tenant
  // rather than refusing c.
  EXPECT_EQ(router.push(rec("c"), &ev, &why), PushOutcome::kAdmitted);
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_EQ(ev[0].reason, ShedReason::kFairShare);

  const TenantRouter::Stats s = router.stats();
  EXPECT_EQ(s.shed_new, 1u);
  expect_conservation(s);
}

TEST(TenantRouter, ShedQueuedRungTrimsBacklogsToFairShare) {
  TenantRouter router(with_capacity(8));
  for (int i = 0; i < 6; ++i) admit(router, rec("a"));
  admit(router, rec("b"));

  std::vector<ShedRecord> ev;
  ASSERT_EQ(router.tick(true, &ev), Rung::kShedNew);
  ASSERT_EQ(router.tick(true, &ev), Rung::kShedQueued);
  // a's share is 4 (two active weight-1 tenants, capacity 8): its two
  // EARLIEST records are trimmed; b (1 <= share) is untouched.
  ASSERT_EQ(ev.size(), 2u);
  for (const ShedRecord& s : ev) {
    EXPECT_EQ(s.item.record.tenant, "a");
    EXPECT_EQ(s.reason, ShedReason::kShedQueued);
  }
  EXPECT_LT(ev[0].item.seq, ev[1].item.seq);

  const TenantRouter::Stats s = router.stats();
  EXPECT_EQ(s.shed_queued, 2u);
  EXPECT_EQ(s.depth, 5u);
  expect_conservation(s);
}

TEST(TenantRouter, RejectTenantRungRefusesTheOffenderOnly) {
  // Capacity 8, two active tenants: flood (6 queued) is over its share of
  // 4, so it is the electable offender.
  TenantRouter router(with_capacity(8));
  for (int i = 0; i < 6; ++i) admit(router, rec("flood"));
  admit(router, rec("nice"));

  std::vector<ShedRecord> ev;
  router.tick(true, &ev);
  router.tick(true, &ev);
  ASSERT_EQ(router.tick(true, &ev), Rung::kRejectTenant);
  EXPECT_EQ(router.offender(), "flood");

  ShedReason why{};
  EXPECT_EQ(router.push(rec("flood"), &ev, &why), PushOutcome::kShed);
  EXPECT_EQ(why, ShedReason::kRejectTenant);
  EXPECT_EQ(router.push(rec("nice"), &ev, &why), PushOutcome::kAdmitted);

  // Recovery: enough calm ticks step the ladder down and clear the
  // offender (down_hold defaults to 8; drain the queues first so
  // utilization is 0).
  QueuedRecord out;
  while (router.try_pop(&out)) {
  }
  for (int i = 0; i < 64 && router.rung() != Rung::kNormal; ++i)
    router.tick(false, &ev);
  EXPECT_EQ(router.rung(), Rung::kNormal);
  EXPECT_EQ(router.offender(), "");
  expect_conservation(router.stats());
}

TEST(TenantRouter, DrainRejectsNewWhileQueuedRecordsStayPoppable) {
  TenantRouter router(with_capacity(8));
  admit(router, rec("t"));
  admit(router, rec("t"));
  router.begin_drain();
  EXPECT_EQ(router.rung(), Rung::kDrain);

  std::vector<ShedRecord> ev;
  ShedReason why{};
  EXPECT_EQ(router.push(rec("t"), &ev, &why), PushOutcome::kShed);
  EXPECT_EQ(why, ShedReason::kRejectDrain);

  QueuedRecord out;
  EXPECT_TRUE(router.try_pop(&out));
  EXPECT_TRUE(router.try_pop(&out));
  EXPECT_FALSE(router.try_pop(&out));

  // Drain survives further ticks (terminal).
  EXPECT_EQ(router.tick(false, &ev), Rung::kDrain);
  const TenantRouter::Stats s = router.stats();
  EXPECT_EQ(s.rejected_drain, 1u);
  expect_conservation(s);
}

TEST(TenantRouter, BatchAdmissionIsBitIdenticalToPerRecordPush) {
  // The pin the batched ingest path leans on: admit_batch over any chunking
  // of a record sequence makes EXACTLY the decisions a push() loop makes —
  // same outcomes, same shed reasons, same evicted records in the same
  // order, same stats, same drained pop order — across rung changes and
  // interleaved pops.
  RouterConfig config;
  config.capacity = 48;
  TenantRouter per(config);
  TenantRouter batched(config);
  const std::string tenants[] = {"t0", "t1", "t2", "t3", "t4", "t5"};
  for (TenantRouter* r : {&per, &batched}) {
    r->set_weight("t0", 4.0);
    r->set_weight("t1", 0.5);
  }

  sim::Rng rng(99);
  std::uint64_t next_id = 0;
  std::vector<TenantRouter::BatchOutcome> outcomes;

  for (int round = 0; round < 400; ++round) {
    const std::size_t n = 1 + rng.uniform_int(32);
    std::vector<JobRecord> records;
    records.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      JobRecord r = rec(tenants[rng.uniform_int(6)],
                        1.0 + rng.uniform_double() * 4.0);
      r.client_id = ++next_id;
      records.push_back(r);
    }
    std::vector<JobRecord> copy = records;

    std::vector<std::pair<PushOutcome, ShedReason>> per_out;
    std::vector<ShedRecord> per_ev, batch_ev, ev;
    for (const JobRecord& r : records) {
      ShedReason why{};
      ev.clear();
      per_out.emplace_back(per.push(r, &ev, &why), why);
      per_ev.insert(per_ev.end(), ev.begin(), ev.end());
    }

    batched.admit_batch({copy.data(), copy.size()}, &outcomes, &batch_ev);
    ASSERT_EQ(outcomes.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(outcomes[i].outcome, per_out[i].first) << "record " << i;
      if (outcomes[i].outcome == PushOutcome::kShed) {
        EXPECT_EQ(outcomes[i].reason, per_out[i].second) << "record " << i;
      }
    }
    ASSERT_EQ(per_ev.size(), batch_ev.size());
    for (std::size_t i = 0; i < per_ev.size(); ++i) {
      EXPECT_EQ(per_ev[i].item.seq, batch_ev[i].item.seq);
      EXPECT_EQ(per_ev[i].item.record.client_id,
                batch_ev[i].item.record.client_id);
      EXPECT_EQ(per_ev[i].item.record.tenant, batch_ev[i].item.record.tenant);
      EXPECT_EQ(per_ev[i].reason, batch_ev[i].reason);
    }

    // Interleave pops and rung changes, identically on both routers.
    const std::uint64_t pops = rng.uniform_int(8);
    for (std::uint64_t p = 0; p < pops; ++p) {
      QueuedRecord a, b;
      const bool got_a = per.try_pop(&a);
      const bool got_b = batched.try_pop(&b);
      ASSERT_EQ(got_a, got_b);
      if (got_a) {
        EXPECT_EQ(a.seq, b.seq);
        EXPECT_EQ(a.record.client_id, b.record.client_id);
      }
    }
    if (rng.bernoulli(0.1)) {
      const bool stalled = rng.bernoulli(0.5);
      std::vector<ShedRecord> ta, tb;
      EXPECT_EQ(per.tick(stalled, &ta), batched.tick(stalled, &tb));
      ASSERT_EQ(ta.size(), tb.size());
      for (std::size_t i = 0; i < ta.size(); ++i)
        EXPECT_EQ(ta[i].item.seq, tb[i].item.seq);
    }
  }

  // Drain both: the full remaining weighted-fair pop order agrees.
  QueuedRecord a, b;
  while (true) {
    const bool got_a = per.try_pop(&a);
    const bool got_b = batched.try_pop(&b);
    ASSERT_EQ(got_a, got_b);
    if (!got_a) break;
    EXPECT_EQ(a.seq, b.seq);
    EXPECT_EQ(a.record.client_id, b.record.client_id);
    EXPECT_EQ(a.record.tenant, b.record.tenant);
  }

  const TenantRouter::Stats sp = per.stats();
  const TenantRouter::Stats sb = batched.stats();
  EXPECT_EQ(sp.accepted, sb.accepted);
  EXPECT_EQ(sp.popped, sb.popped);
  EXPECT_EQ(sp.shed_fair_share, sb.shed_fair_share);
  EXPECT_EQ(sp.shed_arrival_full, sb.shed_arrival_full);
  EXPECT_EQ(sp.shed_new, sb.shed_new);
  EXPECT_EQ(sp.shed_queued, sb.shed_queued);
  EXPECT_EQ(sp.rejected_tenant, sb.rejected_tenant);
  EXPECT_EQ(sp.rejected_drain, sb.rejected_drain);
  EXPECT_EQ(sp.depth, sb.depth);
  EXPECT_GT(sp.total_shed(), 0u);  // the churn actually exercised shedding
  expect_conservation(sp);
  expect_conservation(sb);
}

TEST(TenantRouter, ConservationHoldsUnderRandomizedChurn) {
  // Seeded single-thread churn over several tenants: every stats()
  // snapshot along the way must balance exactly.  (The multi-threaded
  // version of this property runs in service_stress_test.)
  RouterConfig config;
  config.capacity = 32;
  TenantRouter router(config);
  sim::Rng rng(1234);
  const std::string tenants[] = {"t0", "t1", "t2", "t3", "t4", "t5"};
  router.set_weight("t0", 4.0);
  router.set_weight("t1", 0.5);

  std::vector<ShedRecord> ev;
  std::uint64_t pushes = 0, admitted = 0, shed_at_push = 0, evicted = 0,
                popped = 0;
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t dice = rng.uniform_int(10);
    if (dice < 6) {
      ev.clear();
      ShedReason why{};
      ++pushes;
      if (router.push(rec(tenants[rng.uniform_int(6)],
                          1.0 + rng.uniform_double() * 4.0),
                      &ev, &why) == PushOutcome::kAdmitted)
        ++admitted;
      else
        ++shed_at_push;
      evicted += ev.size();
    } else if (dice < 9) {
      QueuedRecord out;
      if (router.try_pop(&out)) ++popped;
    } else {
      ev.clear();
      router.tick(rng.bernoulli(0.05), &ev);
      evicted += ev.size();
    }
    if (step % 1000 == 0) expect_conservation(router.stats());
  }
  const TenantRouter::Stats s = router.stats();
  expect_conservation(s);
  EXPECT_EQ(s.accepted, admitted);
  EXPECT_EQ(s.popped, popped);
  EXPECT_EQ(s.shed_fair_share + s.shed_queued, evicted);
  EXPECT_EQ(s.total_shed(), shed_at_push + evicted);
  EXPECT_EQ(pushes, admitted + shed_at_push);
  EXPECT_GT(s.total_shed(), 0u);  // the churn actually exercised shedding
}


/// Pops `n` records and counts them by tenant.
std::map<std::string, int> pop_counts(TenantRouter& router, int n) {
  std::map<std::string, int> counts;
  QueuedRecord out;
  for (int i = 0; i < n && router.try_pop(&out); ++i)
    ++counts[out.record.tenant];
  return counts;
}

TEST(TenantRouter, WeightsSetTheShareOfPopsOnTheDefaultConfig) {
  // Four backlogged tenants weighted {1, 1, 2, 4} with equal work: over
  // the first 400 pops each gets exactly its weighted share.  250 records
  // each fit the default capacity, so nothing is shed.
  TenantRouter router{RouterConfig{}};
  const std::pair<const char*, double> tenants[] = {
      {"t1", 1.0}, {"t2", 1.0}, {"t3", 2.0}, {"t4", 4.0}};
  for (const auto& [name, weight] : tenants) router.set_weight(name, weight);
  for (int i = 0; i < 250; ++i)
    for (const auto& [name, weight] : tenants) admit(router, rec(name));
  const std::map<std::string, int> expected = {
      {"t1", 50}, {"t2", 50}, {"t3", 100}, {"t4", 200}};
  EXPECT_EQ(pop_counts(router, 400), expected);
  EXPECT_EQ(router.stats().total_shed(), 0u);
}

TEST(TenantRouter, ShortJobsOfAHeavierTenantAreNotQueuedBehindLongOnes) {
  // A weight-3 tenant with 20-unit jobs against a weight-1 tenant with
  // 5,000-unit jobs: after one long job the long tenant's virtual time is
  // 5,000, which the short tenant reaches only after 750 pops.
  TenantRouter router{RouterConfig{}};
  router.set_weight("short", 3.0);
  for (int i = 0; i < 250; ++i) {
    admit(router, rec("long", 5000.0));
    admit(router, rec("short", 20.0));
  }
  EXPECT_EQ(pop_counts(router, 200)["short"], 199);
}

TEST(TenantRouter, DepartedTenantsDoNotAccumulate) {
  // 10^5 tenants each send one record and leave, while the backlog
  // wanders.  Idle entries past `capacity` are erased, so the router never
  // holds more entries than capacity + depth, and every record is popped.
  const RouterConfig config;
  TenantRouter router(config);
  router.set_weight("gold", 4.0);
  admit(router, rec("gold"));
  QueuedRecord out;
  ASSERT_TRUE(router.try_pop(&out));

  constexpr std::uint64_t kTenants = 100000;
  sim::Rng rng(7);
  std::uint64_t popped = 0;
  const auto pop_one = [&] {
    if (!router.try_pop(&out)) return false;
    ++popped;
    const TenantRouter::Stats s = router.stats();
    EXPECT_LE(s.tenants, config.capacity + s.depth) << "after pop " << popped;
    return true;
  };
  for (std::uint64_t i = 0; i < kTenants; ++i) {
    admit(router, rec(std::to_string(i)));
    const TenantRouter::Stats s = router.stats();
    ASSERT_LE(s.tenants, config.capacity + s.depth) << "after push " << i;
    for (std::uint64_t pops = rng.uniform_int(3); pops > 0 && pop_one();)
      --pops;
  }
  while (pop_one()) {
  }
  EXPECT_EQ(popped, kTenants);
  const TenantRouter::Stats s = router.stats();
  EXPECT_EQ(s.total_shed(), 0u);
  EXPECT_LE(s.tenants, config.capacity);
  expect_conservation(s);

  // gold's entry went with the other idle ones; its weight did not.  At
  // 4:1 with unit work, gold takes 4 of the first 5 pops.
  for (int i = 0; i < 4; ++i) {
    admit(router, rec("gold"));
    admit(router, rec("plain"));
  }
  EXPECT_EQ(pop_counts(router, 5)["gold"], 4);
}

}  // namespace
}  // namespace pjsched::service
