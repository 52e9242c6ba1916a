// Per-tenant admission with weighted fair shedding — the layer between the
// daemon's streaming ingest and the ThreadPool's admission queue, and the
// daemon's one overload control: the pool admits whatever it is handed.
//
// One queue under one lock.  Within it:
//
//   * records queue FIFO per tenant;
//   * dispatch pops weighted-fair: the backlogged tenant with the
//     smallest virtual service time (serviced work / weight), ties to the
//     earliest-queued head record, so a flooding tenant cannot starve a
//     well-behaved one even before any shedding starts.  The backlogged
//     tenants sit in a binary min-heap on that key, so a pop costs
//     O(log backlogged tenants);
//   * when the router is full, admission sheds from the most-loaded tenant
//     — largest queued records / weight — provided it is more loaded than
//     the arriving record's tenant would become by queuing (otherwise the
//     arrival itself is the fair victim), dropping that tenant's
//     EARLIEST-queued record (head drop: the oldest record is the one
//     whose flow bound is already lost).
//
// An idle tenant keeps its entry, and so its virtual time, until more than
// `capacity` idle entries exist; then every idle entry is erased.  Entries
// therefore never exceed backlogged tenants + capacity, and a returning
// tenant re-enters at the virtual clock exactly as a never-seen name does.
// Weights from set_weight() live apart from the entries and survive this.
//
// The router owns a DegradationLadder sample loop via tick(): utilization
// (depth / capacity) plus the pool watchdog's stall flag drive the rung,
// and the rung changes what push() and tick() do (see degradation.h for
// the ladder itself).  The one lock also guards the ladder, the offender
// and the counters.
//
// Every record handed to push() reaches exactly one outcome: admitted (and
// later popped for dispatch) or shed/rejected with a reason — either
// returned synchronously or, for queued records trimmed later, surfaced
// through tick()'s eviction list.  The conservation law
//   accepted == popped + shed_from_queue + depth
// holds in every stats() snapshot; the chaos campaign asserts it after
// every trial.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/runtime/annotations.h"
#include "src/runtime/job.h"
#include "src/runtime/mutex.h"
#include "src/service/degradation.h"
#include "src/service/record.h"

namespace pjsched::service {

using Clock = runtime::Clock;

struct RouterConfig {
  /// Queued-record bound; also the bound on idle tenant entries.
  std::size_t capacity = 4096;
  /// The router has one queue.  perfbench/daemon_workload.cc still reads
  /// this to size its capacity, so it stays, as a constant.
  static constexpr std::size_t shards = 8;
};

/// Why a record left the router without being dispatched.
enum class ShedReason : std::uint8_t {
  kFairShare,      ///< full router: weighted fair eviction
  kShedNew,        ///< shed-new rung: over-share arrival dropped at ingest
  kShedQueued,     ///< shed-queued rung: queued backlog trimmed to share
  kRejectTenant,   ///< reject-tenant rung: offending tenant refused
  kRejectDrain,    ///< drain rung: nothing new accepted
};

inline const char* to_string(ShedReason r) {
  switch (r) {
    case ShedReason::kFairShare: return "fair-share";
    case ShedReason::kShedNew: return "shed-new";
    case ShedReason::kShedQueued: return "shed-queued";
    case ShedReason::kRejectTenant: return "reject-tenant";
    case ShedReason::kRejectDrain: return "reject-drain";
  }
  return "?";
}

/// A record inside the router: the parsed submission plus its ingest
/// timestamp (flow time is measured from ingest, not pool submission — the
/// router queue is part of the job's flow) and an arrival sequence number
/// (the earliest-queued tie-break).
struct QueuedRecord {
  JobRecord record;
  Clock::time_point ingest{};
  std::uint64_t seq = 0;
};

/// A record the router gave up on, with the reason.
struct ShedRecord {
  QueuedRecord item;
  ShedReason reason{};
};

/// Outcome of TenantRouter::push for the *pushed* record (a different
/// record evicted on its behalf comes back via the eviction list).
enum class PushOutcome : std::uint8_t { kAdmitted, kShed };

class TenantRouter {
 public:
  explicit TenantRouter(const RouterConfig& config);
  TenantRouter(const TenantRouter&) = delete;
  TenantRouter& operator=(const TenantRouter&) = delete;

  /// Sets a tenant's fair-share weight (1 until called).
  /// Throws std::invalid_argument unless the weight is finite and > 0.
  void set_weight(const std::string& tenant, double weight);

  /// Ingests one record.  kAdmitted: the record is queued (a *different*
  /// record may have been evicted to make room — appended to *evictions
  /// with its reason).  kShed: the pushed record itself was dropped;
  /// *reason says why.  `evictions` and `reason` must be non-null.
  PushOutcome push(JobRecord record, std::vector<ShedRecord>* evictions,
                   ShedReason* reason);

  /// Per-record outcome of admit_batch (the batch analog of push()'s
  /// return + *reason).
  struct BatchOutcome {
    PushOutcome outcome = PushOutcome::kAdmitted;
    ShedReason reason{};  ///< valid when outcome == kShed
  };

  /// Unused; perfbench/daemon_workload.cc still passes one to admit_batch.
  struct BatchScratch {};

  /// Batched ingest: admits every record of `records` in order under ONE
  /// lock hold, with the decisions a push() loop over the same records
  /// would make (pinned by test).  One ingest timestamp covers the whole
  /// batch.
  ///
  /// A record is moved from on admission; one shed at the door is left
  /// intact so the caller can account it by tenant.  *outcomes is resized
  /// to the batch; evicted records are appended to *evictions as in push().
  void admit_batch(std::span<JobRecord> records,
                   std::vector<BatchOutcome>* outcomes,
                   std::vector<ShedRecord>* evictions,
                   BatchScratch* scratch = nullptr);

  /// Dispatcher side: pops the weighted-fair next record.  Returns false
  /// when the router is empty.
  bool try_pop(QueuedRecord* out);

  /// Maintenance tick: feeds (utilization, stalled) to the ladder, applies
  /// rung side effects — trimming over-share backlogs at shed-queued and
  /// above, electing/clearing the reject-tenant offender — and appends any
  /// trimmed records to *evictions.  Returns the rung after the tick.
  Rung tick(bool stalled, std::vector<ShedRecord>* evictions);

  /// Terminal: every future push is rejected (kRejectDrain); queued
  /// records stay poppable so dispatch can drain them.
  void begin_drain();

  Rung rung() const;
  /// The tenant currently refused at reject-tenant, or "" outside it.
  std::string offender() const;

  std::size_t depth() const;

  /// Accounting, from one lock hold, so the books balance exactly:
  /// accepted == popped + shed_from_queue + depth, where
  /// shed_from_queue = shed_fair_share + shed_queued.
  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t popped = 0;
    std::uint64_t shed_fair_share = 0;     ///< queued records evicted by a
                                           ///< full-router fair decision
    std::uint64_t shed_arrival_full = 0;   ///< arrivals dropped at a full
                                           ///< router (nobody else over
                                           ///< share)
    std::uint64_t shed_new = 0;            ///< arrivals dropped at shed-new+
    std::uint64_t shed_queued = 0;         ///< queued records trimmed by tick
    std::uint64_t rejected_tenant = 0;     ///< refused: offending tenant
    std::uint64_t rejected_drain = 0;      ///< refused: draining
    std::size_t depth = 0;
    std::size_t peak_depth = 0;
    /// Tenant entries held, backlogged and idle.
    std::size_t tenants = 0;

    /// Records shed/rejected by any path.  Conservation: every record ever
    /// pushed == popped + total_shed() + depth, because accepted ==
    /// popped + shed_fair_share + shed_queued + depth (only accepted
    /// records sit in queues) and the remaining counters were never queued.
    std::uint64_t total_shed() const {
      return shed_fair_share + shed_arrival_full + shed_new + shed_queued +
             rejected_tenant + rejected_drain;
    }
  };
  Stats stats() const;

 private:
  static constexpr std::size_t kIdle = std::numeric_limits<std::size_t>::max();

  struct Tenant {
    double weight;
    std::deque<QueuedRecord> queue;
    /// Weighted-fair virtual service time: serviced work / weight.
    double virtual_time = 0.0;
    /// Index in backlog_ while the queue is non-empty, else kIdle.
    std::size_t heap_pos = kIdle;
  };
  using Entry = std::unordered_map<std::string, Tenant>::value_type;

  /// The tenant's entry, made (with its set_weight() weight) if absent.
  Entry& entry_locked(const std::string& name) PJSCHED_REQUIRES(mu_);
  /// The admission core shared bit-for-bit by push() and admit_batch():
  /// rung gates, weighted-fair full-router eviction, activation catch-up,
  /// enqueue + accounting.  Moves from `queued` only on kAdmitted; on
  /// kShed the record is left intact for the caller.  The caller then
  /// runs erase_idle_locked(): a shed arrival can leave a new entry idle,
  /// and an eviction can empty its victim's queue.
  PushOutcome admit_locked(QueuedRecord& queued,
                           std::vector<ShedRecord>* evictions,
                           ShedReason* reason) PJSCHED_REQUIRES(mu_);
  /// Erases every idle entry once more than `capacity` exist.
  void erase_idle_locked() PJSCHED_REQUIRES(mu_);
  /// Sum of the backlogged tenants' weights (the fair-share denominator).
  double backlog_weight_locked() const PJSCHED_REQUIRES(mu_);
  /// The backlogged tenant with the largest queued/weight, ties to the
  /// earliest-queued head; among those over their fair share only when
  /// `over_share_only`.  nullptr when there is none.
  Entry* heaviest_locked(bool over_share_only) const PJSCHED_REQUIRES(mu_);

  // The backlog heap: backlog_ is a binary min-heap of the backlogged
  // tenants on (virtual time, head seq), each entry knowing its index.
  static bool before(const Entry* a, const Entry* b);
  void heap_set(std::size_t pos, Entry* e) PJSCHED_REQUIRES(mu_);
  void sift_up(std::size_t pos) PJSCHED_REQUIRES(mu_);
  void sift_down(std::size_t pos) PJSCHED_REQUIRES(mu_);
  void heap_push(Entry& e) PJSCHED_REQUIRES(mu_);
  void heap_erase(Entry& e) PJSCHED_REQUIRES(mu_);

  const RouterConfig config_;

  mutable runtime::Mutex mu_;
  std::unordered_map<std::string, Tenant> tenants_ PJSCHED_GUARDED_BY(mu_);
  std::unordered_map<std::string, double> weights_ PJSCHED_GUARDED_BY(mu_);
  std::vector<Entry*> backlog_ PJSCHED_GUARDED_BY(mu_);
  /// Virtual clock: the service time of the last pop; a tenant becoming
  /// backlogged is caught up to it so idling never banks credit.
  double vclock_ PJSCHED_GUARDED_BY(mu_) = 0.0;
  /// Arrival sequence (earliest-queued tie-break).
  std::uint64_t next_seq_ PJSCHED_GUARDED_BY(mu_) = 0;
  DegradationLadder ladder_ PJSCHED_GUARDED_BY(mu_);
  std::string offender_ PJSCHED_GUARDED_BY(mu_);
  /// The counters, depth and peak; stats() adds the entry count.
  Stats stats_ PJSCHED_GUARDED_BY(mu_);
};

}  // namespace pjsched::service
