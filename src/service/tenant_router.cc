#include "src/service/tenant_router.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <stdexcept>
#include <utility>

namespace pjsched::service {

TenantRouter::TenantRouter(const RouterConfig& config)
    : config_(config), ladder_(config.ladder) {
  if (config_.capacity == 0)
    throw std::invalid_argument("TenantRouter: capacity must be > 0");
  if (!(config_.default_weight > 0.0))
    throw std::invalid_argument("TenantRouter: default_weight must be > 0");
}

void TenantRouter::set_weight(const std::string& tenant, double weight) {
  if (!(weight > 0.0) || !std::isfinite(weight))
    throw std::invalid_argument(
        "TenantRouter::set_weight: weight must be finite and > 0");
  runtime::MutexLock lock(mu_);
  weights_[tenant] = weight;
  const auto it = tenants_.find(tenant);
  if (it != tenants_.end()) it->second.weight = weight;
}

TenantRouter::Entry& TenantRouter::entry_locked(const std::string& name) {
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    const auto w = weights_.find(name);
    const double weight =
        w == weights_.end() ? config_.default_weight : w->second;
    it = tenants_.emplace(name, Tenant{weight, {}}).first;
  }
  return *it;
}

void TenantRouter::erase_idle_locked() {
  if (tenants_.size() - backlog_.size() <= config_.capacity) return;
  for (auto it = tenants_.begin(); it != tenants_.end();)
    it = it->second.heap_pos == kIdle ? tenants_.erase(it) : std::next(it);
}

double TenantRouter::backlog_weight_locked() const {
  double sum = 0.0;
  for (const Entry* e : backlog_) sum += e->second.weight;
  return sum;
}

TenantRouter::Entry* TenantRouter::heaviest_locked(bool over_share_only) const {
  const double capacity = static_cast<double>(config_.capacity);
  const double weight_sum = over_share_only ? backlog_weight_locked() : 0.0;
  Entry* best = nullptr;
  double best_load = 0.0;
  for (Entry* e : backlog_) {
    const Tenant& t = e->second;
    const double queued = static_cast<double>(t.queue.size());
    if (over_share_only && queued <= capacity * t.weight / weight_sum) continue;
    const double load = queued / t.weight;
    // Largest queued-per-weight wins; ties go to the tenant whose head
    // record queued earliest (its backlog has been over share the longest).
    const bool wins =
        best == nullptr || load > best_load ||
        (load == best_load &&
         t.queue.front().seq < best->second.queue.front().seq);
    if (wins) {
      best = e;
      best_load = load;
    }
  }
  return best;
}

bool TenantRouter::before(const Entry* a, const Entry* b) {
  const Tenant& x = a->second;
  const Tenant& y = b->second;
  return x.virtual_time < y.virtual_time ||
         (x.virtual_time == y.virtual_time &&
          x.queue.front().seq < y.queue.front().seq);
}

void TenantRouter::heap_set(std::size_t pos, Entry* e) {
  backlog_[pos] = e;
  e->second.heap_pos = pos;
}

void TenantRouter::sift_up(std::size_t pos) {
  Entry* e = backlog_[pos];
  while (pos > 0 && before(e, backlog_[(pos - 1) / 2])) {
    heap_set(pos, backlog_[(pos - 1) / 2]);
    pos = (pos - 1) / 2;
  }
  heap_set(pos, e);
}

void TenantRouter::sift_down(std::size_t pos) {
  Entry* e = backlog_[pos];
  const std::size_t n = backlog_.size();
  for (std::size_t child = 2 * pos + 1; child < n; child = 2 * pos + 1) {
    if (child + 1 < n && before(backlog_[child + 1], backlog_[child])) ++child;
    if (!before(backlog_[child], e)) break;
    heap_set(pos, backlog_[child]);
    pos = child;
  }
  heap_set(pos, e);
}

void TenantRouter::heap_push(Entry& e) {
  backlog_.push_back(&e);
  sift_up(backlog_.size() - 1);
}

void TenantRouter::heap_erase(Entry& e) {
  const std::size_t pos = e.second.heap_pos;
  e.second.heap_pos = kIdle;
  Entry* last = backlog_.back();
  backlog_.pop_back();
  if (last == &e) return;
  heap_set(pos, last);
  sift_up(pos);
  sift_down(last->second.heap_pos);
}

PushOutcome TenantRouter::admit_locked(QueuedRecord& queued,
                                       std::vector<ShedRecord>* evictions,
                                       ShedReason* reason) {
  queued.seq = next_seq_++;
  const Rung rung = ladder_.rung();
  if (rung == Rung::kDrain) {
    ++stats_.rejected_drain;
    *reason = ShedReason::kRejectDrain;
    return PushOutcome::kShed;
  }
  if (rung == Rung::kRejectTenant && !offender_.empty() &&
      queued.record.tenant == offender_) {
    ++stats_.rejected_tenant;
    *reason = ShedReason::kRejectTenant;
    return PushOutcome::kShed;
  }

  Entry& entry = entry_locked(queued.record.tenant);
  Tenant& tenant = entry.second;
  const bool backlogged = tenant.heap_pos != kIdle;

  if (rung >= Rung::kShedNew) {
    // Degraded: arrivals that would put the tenant over its fair share are
    // shed at the door; under-share tenants are still served normally.
    const double weight_sum =
        backlog_weight_locked() + (backlogged ? 0.0 : tenant.weight);
    const double share =
        static_cast<double>(config_.capacity) * tenant.weight / weight_sum;
    if (static_cast<double>(tenant.queue.size()) + 1.0 > share) {
      ++stats_.shed_new;
      *reason = ShedReason::kShedNew;
      return PushOutcome::kShed;
    }
  }

  if (stats_.depth >= config_.capacity) {
    // Full router: weighted fair shedding.  The most-loaded tenant (largest
    // queued/weight) yields its EARLIEST-queued record — but only when it
    // is more loaded than the arrival's tenant would become by queuing;
    // otherwise the arrival is the fair victim and is shed itself.  (A
    // tenant can never evict itself: its post-queue load strictly exceeds
    // its current load.)
    const double incoming_load =
        (static_cast<double>(tenant.queue.size()) + 1.0) / tenant.weight;
    Entry* victim = heaviest_locked(/*over_share_only=*/false);
    if (victim == nullptr ||
        static_cast<double>(victim->second.queue.size()) /
                victim->second.weight <
            incoming_load) {
      ++stats_.shed_arrival_full;
      *reason = ShedReason::kFairShare;
      return PushOutcome::kShed;
    }
    Tenant& v = victim->second;
    evictions->push_back(
        ShedRecord{std::move(v.queue.front()), ShedReason::kFairShare});
    v.queue.pop_front();
    --stats_.depth;
    ++stats_.shed_fair_share;
    if (v.queue.empty())
      heap_erase(*victim);
    else
      sift_down(v.heap_pos);  // its head moved to a later seq
  }

  tenant.queue.push_back(std::move(queued));
  if (!backlogged) {
    // Activation catch-up: an idle tenant re-enters at the virtual clock,
    // so idling never banks service credit.
    tenant.virtual_time = std::max(tenant.virtual_time, vclock_);
    heap_push(entry);
  }
  ++stats_.depth;
  stats_.peak_depth = std::max(stats_.peak_depth, stats_.depth);
  ++stats_.accepted;
  return PushOutcome::kAdmitted;
}

PushOutcome TenantRouter::push(JobRecord record,
                               std::vector<ShedRecord>* evictions,
                               ShedReason* reason) {
  QueuedRecord queued;
  queued.record = std::move(record);
  queued.ingest = Clock::now();
  runtime::MutexLock lock(mu_);
  const PushOutcome outcome = admit_locked(queued, evictions, reason);
  erase_idle_locked();
  return outcome;
}

void TenantRouter::admit_batch(std::span<JobRecord> records,
                               std::vector<BatchOutcome>* outcomes,
                               std::vector<ShedRecord>* evictions,
                               BatchScratch* /*unused*/) {
  outcomes->clear();
  outcomes->resize(records.size());
  if (records.empty()) return;

  QueuedRecord queued;
  queued.ingest = Clock::now();
  runtime::MutexLock lock(mu_);
  for (std::size_t i = 0; i < records.size(); ++i) {
    queued.record = std::move(records[i]);
    BatchOutcome& out = (*outcomes)[i];
    out.outcome = admit_locked(queued, evictions, &out.reason);
    erase_idle_locked();
    if (out.outcome == PushOutcome::kShed)
      // Hand the record back so the caller can account the shed by
      // tenant (admit_locked moves from `queued` only on admission).
      records[i] = std::move(queued.record);
  }
}

bool TenantRouter::try_pop(QueuedRecord* out) {
  runtime::MutexLock lock(mu_);
  if (backlog_.empty()) return false;
  Entry& top = *backlog_.front();
  Tenant& t = top.second;
  *out = std::move(t.queue.front());
  t.queue.pop_front();
  --stats_.depth;
  ++stats_.popped;
  vclock_ = t.virtual_time;
  t.virtual_time += out->record.work / t.weight;
  if (t.queue.empty()) {
    heap_erase(top);
    erase_idle_locked();
  } else {
    sift_down(0);
  }
  return true;
}

Rung TenantRouter::tick(bool stalled, std::vector<ShedRecord>* evictions) {
  runtime::MutexLock lock(mu_);
  const double utilization =
      static_cast<double>(stats_.depth) / static_cast<double>(config_.capacity);
  const Rung rung = ladder_.on_sample(utilization, stalled);

  if (rung >= Rung::kShedQueued && rung != Rung::kDrain) {
    // Trim every over-share backlog to its fair share, head first.
    const double capacity = static_cast<double>(config_.capacity);
    const double weight_sum = backlog_weight_locked();
    for (Entry* e : backlog_) {
      Tenant& t = e->second;
      const double share = capacity * t.weight / weight_sum;
      // Keep at least one record per tenant: trimming a well-behaved
      // tenant to zero would deny it progress entirely, which is exactly
      // what the ladder exists to prevent.
      const auto allowed = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::floor(share + 1e-9)));
      while (t.queue.size() > allowed) {
        evictions->push_back(
            ShedRecord{std::move(t.queue.front()), ShedReason::kShedQueued});
        t.queue.pop_front();
        --stats_.depth;
        ++stats_.shed_queued;
      }
    }
    // Trimmed heads moved to later seqs: restore the heap order.
    for (std::size_t pos = backlog_.size() / 2; pos-- > 0;) sift_down(pos);
  }

  if (rung != Rung::kRejectTenant) {
    offender_.clear();
  } else if (offender_.empty()) {
    // Elect the worst tenant: the most-over-share one if any, otherwise
    // the most-loaded — the shed-queued trim usually ran just before this
    // rung, so queues may already sit exactly at share.
    const Entry* worst = heaviest_locked(/*over_share_only=*/true);
    if (worst == nullptr) worst = heaviest_locked(/*over_share_only=*/false);
    if (worst != nullptr) offender_ = worst->first;
  }
  return rung;
}

void TenantRouter::begin_drain() {
  runtime::MutexLock lock(mu_);
  ladder_.begin_drain();
  offender_.clear();
}

Rung TenantRouter::rung() const {
  runtime::MutexLock lock(mu_);
  return ladder_.rung();
}

std::string TenantRouter::offender() const {
  runtime::MutexLock lock(mu_);
  return offender_;
}

std::size_t TenantRouter::depth() const {
  runtime::MutexLock lock(mu_);
  return stats_.depth;
}

TenantRouter::Stats TenantRouter::stats() const {
  runtime::MutexLock lock(mu_);
  Stats s = stats_;
  s.tenants = tenants_.size();
  return s;
}

}  // namespace pjsched::service
