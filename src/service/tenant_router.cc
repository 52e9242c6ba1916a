#include "src/service/tenant_router.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

namespace pjsched::service {

TenantRouter::TenantRouter(const RouterConfig& config)
    : config_(config),
      shard_capacity_(std::max<std::size_t>(
          1, config.capacity / std::max<std::size_t>(1, config.shards))),
      ladder_(config.ladder) {
  if (config_.shards == 0 || config_.capacity == 0)
    throw std::invalid_argument(
        "TenantRouter: shards and capacity must be > 0");
  if (!(config_.default_weight > 0.0))
    throw std::invalid_argument("TenantRouter: default_weight must be > 0");
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i)
    shards_.push_back(std::make_unique<RouterShard>());
}

std::size_t TenantRouter::shard_of(const std::string& tenant) const {
  return std::hash<std::string>{}(tenant) % shards_.size();
}

TenantRouter::Tenant& TenantRouter::tenant_slot(RouterShard& shard,
                                                const std::string& name) {
  auto it = shard.tenants.find(name);
  if (it == shard.tenants.end())
    it = shard.tenants.emplace(name, Tenant{config_.default_weight, {}, 0.0})
             .first;
  return it->second;
}

void TenantRouter::set_weight(const std::string& tenant, double weight) {
  if (!(weight > 0.0))
    throw std::invalid_argument("TenantRouter::set_weight: weight must be > 0");
  RouterShard& shard = *shards_[shard_of(tenant)];
  runtime::MutexLock lock(shard.mu);
  tenant_slot(shard, tenant).weight = weight;
}

double TenantRouter::fair_share_locked(const RouterShard& shard,
                                       const Tenant& tenant) const {
  double weight_sum = 0.0;
  for (const auto& [name, t] : shard.tenants)
    if (!t.queue.empty() || &t == &tenant) weight_sum += t.weight;
  if (weight_sum <= 0.0) return static_cast<double>(shard_capacity_);
  return static_cast<double>(shard_capacity_) * tenant.weight / weight_sum;
}

TenantRouter::Tenant* TenantRouter::most_over_share_locked(
    RouterShard& shard, const std::string** out_name) {
  Tenant* best = nullptr;
  const std::string* best_name = nullptr;
  double best_overload = 0.0;
  for (auto& [name, t] : shard.tenants) {
    if (t.queue.empty()) continue;
    const double share = fair_share_locked(shard, t);
    if (static_cast<double>(t.queue.size()) <= share) continue;
    const double overload = static_cast<double>(t.queue.size()) / t.weight;
    // Largest queued-per-weight wins; ties go to the tenant whose head
    // record queued earliest (its backlog has been over share the longest).
    const bool wins =
        best == nullptr || overload > best_overload ||
        (overload == best_overload &&
         t.queue.front().seq < best->queue.front().seq);
    if (wins) {
      best = &t;
      best_name = &name;
      best_overload = overload;
    }
  }
  if (out_name != nullptr) *out_name = best_name;
  return best;
}

TenantRouter::Tenant* TenantRouter::most_loaded_locked(
    RouterShard& shard, const std::string** out_name) {
  Tenant* best = nullptr;
  const std::string* best_name = nullptr;
  double best_load = 0.0;
  for (auto& [name, t] : shard.tenants) {
    if (t.queue.empty()) continue;
    const double load = static_cast<double>(t.queue.size()) / t.weight;
    const bool wins = best == nullptr || load > best_load ||
                      (load == best_load &&
                       t.queue.front().seq < best->queue.front().seq);
    if (wins) {
      best = &t;
      best_name = &name;
      best_load = load;
    }
  }
  if (out_name != nullptr) *out_name = best_name;
  return best;
}

PushOutcome TenantRouter::admit_locked(RouterShard& shard,
                                       QueuedRecord& queued, Rung rung,
                                       const std::string* offender,
                                       std::vector<ShedRecord>* evictions,
                                       ShedReason* reason) {
  if (rung == Rung::kDrain) {
    ++shard.rejected_drain;
    *reason = ShedReason::kRejectDrain;
    return PushOutcome::kShed;
  }
  if (rung == Rung::kRejectTenant && offender != nullptr &&
      queued.record.tenant == *offender) {
    ++shard.rejected_tenant;
    *reason = ShedReason::kRejectTenant;
    return PushOutcome::kShed;
  }

  Tenant& tenant = tenant_slot(shard, queued.record.tenant);

  if (rung >= Rung::kShedNew) {
    // Degraded: arrivals that would put the tenant over its fair share are
    // shed at the door; under-share tenants are still served normally.
    const double share = fair_share_locked(shard, tenant);
    if (static_cast<double>(tenant.queue.size()) + 1.0 > share) {
      ++shard.shed_new;
      *reason = ShedReason::kShedNew;
      return PushOutcome::kShed;
    }
  }

  if (shard.depth >= shard_capacity_) {
    // Full shard: weighted fair shedding.  The most-loaded tenant (largest
    // queued/weight) yields its EARLIEST-queued record — but only when it
    // is more loaded than the arrival's tenant would become by queuing;
    // otherwise the arrival is the fair victim and is shed itself.  (A
    // tenant can never evict itself: its post-queue load strictly exceeds
    // its current load.)
    const double incoming_load =
        (static_cast<double>(tenant.queue.size()) + 1.0) / tenant.weight;
    const std::string* victim_name = nullptr;
    Tenant* victim = most_loaded_locked(shard, &victim_name);
    if (victim == nullptr ||
        static_cast<double>(victim->queue.size()) / victim->weight <
            incoming_load) {
      ++shard.shed_arrival_full;
      *reason = ShedReason::kFairShare;
      return PushOutcome::kShed;
    }
    evictions->push_back(
        ShedRecord{std::move(victim->queue.front()), ShedReason::kFairShare});
    victim->queue.pop_front();
    --shard.depth;
    ++shard.shed_fair_share;
  }

  if (tenant.queue.empty())
    // Activation catch-up: an idle tenant re-enters at the shard's virtual
    // clock, so idling never banks service credit.
    tenant.virtual_time = std::max(tenant.virtual_time, shard.vclock);
  tenant.queue.push_back(std::move(queued));
  ++shard.depth;
  shard.peak_depth = std::max(shard.peak_depth, shard.depth);
  ++shard.accepted;
  return PushOutcome::kAdmitted;
}

PushOutcome TenantRouter::push(JobRecord record,
                               std::vector<ShedRecord>* evictions,
                               ShedReason* reason) {
  QueuedRecord queued;
  queued.record = std::move(record);
  queued.ingest = Clock::now();
  // order: relaxed — a pure ticket; the sequence only needs uniqueness and
  // rough arrival order for tie-breaks, no payload is published through it.
  queued.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);

  const Rung rung =
      static_cast<Rung>(rung_mirror_.load(std::memory_order_acquire));
  // Lock order is always ladder_mu_ -> shard.mu (tick() holds the ladder
  // lock while walking shards), so the offender snapshot happens before
  // the shard lock below.
  std::string offender_copy;
  const std::string* offender = nullptr;
  if (rung == Rung::kRejectTenant) {
    runtime::MutexLock lock(ladder_mu_);
    if (!offender_.empty()) {
      offender_copy = offender_;
      offender = &offender_copy;
    }
  }

  RouterShard& shard = *shards_[shard_of(queued.record.tenant)];
  runtime::MutexLock lock(shard.mu);
  return admit_locked(shard, queued, rung, offender, evictions, reason);
}

void TenantRouter::admit_batch(std::span<JobRecord> records,
                               std::vector<BatchOutcome>* outcomes,
                               std::vector<ShedRecord>* evictions,
                               BatchScratch* scratch) {
  const std::size_t n = records.size();
  outcomes->clear();
  outcomes->resize(n);
  if (n == 0) return;

  // One ticket block for the whole batch: record i gets first_seq + i, the
  // exact sequence a push() loop would hand out.
  // order: relaxed — same pure-ticket semantics as push().
  const std::uint64_t first_seq =
      next_seq_.fetch_add(n, std::memory_order_relaxed);
  const Clock::time_point ingest = Clock::now();
  // order: acquire — pairs with the release stores in tick()/begin_drain(),
  // exactly as push()'s rung read.
  const Rung rung =
      static_cast<Rung>(rung_mirror_.load(std::memory_order_acquire));
  // Offender snapshot BEFORE any shard lock (lock order ladder_mu_ ->
  // shard.mu), once per batch.
  const std::string* offender = nullptr;
  if (rung == Rung::kRejectTenant) {
    runtime::MutexLock lock(ladder_mu_);
    scratch->offender = offender_;
    if (!scratch->offender.empty()) offender = &scratch->offender;
  }

  // Stable counting sort of record indices by shard: per-shard order is
  // batch order, and records of different shards never interact, so the
  // per-shard admit_locked replay below is observationally identical to a
  // sequential push() loop.
  const std::size_t m = shards_.size();
  scratch->shard_index.resize(n);
  scratch->bucket.assign(m + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto s = static_cast<std::uint32_t>(shard_of(records[i].tenant));
    scratch->shard_index[i] = s;
    ++scratch->bucket[s + 1];
  }
  for (std::size_t s = 0; s < m; ++s)
    scratch->bucket[s + 1] += scratch->bucket[s];
  scratch->cursor.assign(scratch->bucket.begin(), scratch->bucket.end());
  scratch->order.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    scratch->order[scratch->cursor[scratch->shard_index[i]]++] =
        static_cast<std::uint32_t>(i);

  QueuedRecord queued;
  for (std::size_t s = 0; s < m; ++s) {
    const std::uint32_t begin = scratch->bucket[s];
    const std::uint32_t end = scratch->bucket[s + 1];
    if (begin == end) continue;
    RouterShard& shard = *shards_[s];
    runtime::MutexLock lock(shard.mu);  // ONE lock hold per shard per batch
    for (std::uint32_t k = begin; k < end; ++k) {
      const std::uint32_t i = scratch->order[k];
      queued.record = std::move(records[i]);
      queued.ingest = ingest;
      queued.seq = first_seq + i;
      BatchOutcome& out = (*outcomes)[i];
      out.outcome =
          admit_locked(shard, queued, rung, offender, evictions, &out.reason);
      if (out.outcome == PushOutcome::kShed)
        // Hand the record back so the caller can account the shed by
        // tenant (admit_locked moves from `queued` only on admission).
        records[i] = std::move(queued.record);
    }
  }
}

bool TenantRouter::try_pop(QueuedRecord* out) {
  // order: relaxed — the cursor only rotates the scan start; any value is
  // correct, fairness needs rotation, not ordering.
  const std::uint64_t start =
      pop_cursor_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t n = shards_.size();
  for (std::size_t i = 0; i < n; ++i) {
    RouterShard& shard = *shards_[(start + i) % n];
    runtime::MutexLock lock(shard.mu);
    if (shard.depth == 0) continue;
    Tenant* best = nullptr;
    for (auto& [name, t] : shard.tenants) {
      if (t.queue.empty()) continue;
      const bool wins =
          best == nullptr || t.virtual_time < best->virtual_time ||
          (t.virtual_time == best->virtual_time &&
           t.queue.front().seq < best->queue.front().seq);
      if (wins) best = &t;
    }
    if (best == nullptr) continue;  // depth said otherwise; defensive
    *out = std::move(best->queue.front());
    best->queue.pop_front();
    --shard.depth;
    ++shard.popped;
    shard.vclock = best->virtual_time;
    best->virtual_time += out->record.work / best->weight;
    return true;
  }
  return false;
}

void TenantRouter::trim_shard_locked(RouterShard& shard,
                                     std::vector<ShedRecord>* evictions) {
  for (auto& [name, t] : shard.tenants) {
    if (t.queue.empty()) continue;
    const double share = fair_share_locked(shard, t);
    // Keep at least one record per tenant: trimming a well-behaved tenant
    // to zero would deny it progress entirely, which is exactly what the
    // ladder exists to prevent.
    const auto allowed = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::floor(share + 1e-9)));
    while (t.queue.size() > allowed) {
      evictions->push_back(
          ShedRecord{std::move(t.queue.front()), ShedReason::kShedQueued});
      t.queue.pop_front();
      --shard.depth;
      ++shard.shed_queued;
    }
  }
}

Rung TenantRouter::tick(bool stalled, std::vector<ShedRecord>* evictions) {
  const double utilization =
      static_cast<double>(depth()) / static_cast<double>(config_.capacity);
  runtime::MutexLock lock(ladder_mu_);
  const Rung rung = ladder_.on_sample(utilization, stalled);
  // order: release pairs with push()'s acquire load — a pusher that sees
  // the new rung must also see the ladder state that produced it.
  rung_mirror_.store(static_cast<std::uint8_t>(rung),
                     std::memory_order_release);

  if (rung >= Rung::kShedQueued && rung != Rung::kDrain) {
    for (auto& shard : shards_) {
      runtime::MutexLock shard_lock(shard->mu);
      trim_shard_locked(*shard, evictions);
    }
  }

  if (rung == Rung::kRejectTenant) {
    if (offender_.empty()) {
      // Elect the globally worst tenant: the most-over-share one if any
      // (largest queued/weight above share), otherwise the most-loaded —
      // the shed-queued trim usually ran just before this rung, so queues
      // may already sit exactly at share.  Earliest-queued heads break
      // ties.
      double best_load = 0.0;
      std::uint64_t best_seq = 0;
      bool best_over_share = false;
      for (auto& shard : shards_) {
        runtime::MutexLock shard_lock(shard->mu);
        const std::string* name = nullptr;
        Tenant* over = most_over_share_locked(*shard, &name);
        const bool is_over = over != nullptr;
        Tenant* t = is_over ? over : most_loaded_locked(*shard, &name);
        if (t == nullptr) continue;
        const double load = static_cast<double>(t->queue.size()) / t->weight;
        const std::uint64_t seq = t->queue.front().seq;
        // An over-share candidate always beats a merely-loaded one.
        const bool wins =
            offender_.empty() || (is_over && !best_over_share) ||
            (is_over == best_over_share &&
             (load > best_load || (load == best_load && seq < best_seq)));
        if (wins) {
          offender_ = *name;
          best_load = load;
          best_seq = seq;
          best_over_share = is_over;
        }
      }
    }
  } else {
    offender_.clear();
  }
  return rung;
}

void TenantRouter::begin_drain() {
  runtime::MutexLock lock(ladder_mu_);
  ladder_.begin_drain();
  // order: release — same pairing as tick()'s mirror store.
  rung_mirror_.store(static_cast<std::uint8_t>(Rung::kDrain),
                     std::memory_order_release);
  offender_.clear();
}

Rung TenantRouter::rung() const {
  // order: acquire — pairs with the release stores in tick()/begin_drain().
  return static_cast<Rung>(rung_mirror_.load(std::memory_order_acquire));
}

std::string TenantRouter::offender() const {
  runtime::MutexLock lock(ladder_mu_);
  return offender_;
}

std::size_t TenantRouter::depth() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    runtime::MutexLock lock(shard->mu);
    total += shard->depth;
  }
  return total;
}

TenantRouter::Stats TenantRouter::stats() const {
  Stats total;
  for (const auto& shard : shards_) {
    runtime::MutexLock lock(shard->mu);
    total.accepted += shard->accepted;
    total.popped += shard->popped;
    total.shed_fair_share += shard->shed_fair_share;
    total.shed_arrival_full += shard->shed_arrival_full;
    total.shed_new += shard->shed_new;
    total.shed_queued += shard->shed_queued;
    total.rejected_tenant += shard->rejected_tenant;
    total.rejected_drain += shard->rejected_drain;
    total.depth += shard->depth;
    total.peak_depth = std::max(total.peak_depth, shard->peak_depth);
  }
  return total;
}

}  // namespace pjsched::service
