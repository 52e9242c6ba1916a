// The centralized schedulers of the event engine: one class template over
// a sim::OrderPolicy, instantiated for the paper's two policies and four
// non-paper baselines.
//
// At every decision point the active jobs are ordered by the policy, and
// each job in order is granted one processor per available node until
// processors run out.  Every scheduler here preempts and reallocates at
// every event, at zero cost.
//
//  * FIFO (paper Section 3) — ascending arrival (ties: job index).  The
//                     paper's Theorem 3.1 shows this idealized scheduler
//                     is (1+eps)-speed O(1/eps)-competitive for maximum
//                     unweighted flow time.
//  * BWF (paper Section 7) — Biggest-Weight-First: *decreasing weight*
//                     (ties: earlier arrival, then job index).  Theorem
//                     7.1: BWF is (1+eps)-speed O(1/eps^2)-competitive for
//                     maximum weighted flow time — the strongest result
//                     possible online given the Omega(W^0.4) lower bound
//                     without resource augmentation.
//
// Non-paper baselines, used by benches to contrast FIFO/BWF/work stealing
// against policies known to be bad (or unrealistically clairvoyant) for
// maximum flow time:
//
//  * LIFO           — newest job first.  Starves old jobs; max flow blows up
//                     under load, illustrating why FIFO ordering matters.
//  * SJF            — clairvoyant shortest-remaining-total-work first.
//                     Great for mean flow, bad for max flow under skew.
//  * RoundRobin     — rotates the job priority order at every decision
//                     point (a crude processor-sharing approximation).
//  * Equi           — dynamic equipartition: every active job is offered
//                     ceil(m / #active) processors, leftovers redistributed
//                     (work-conserving).  The canonical fair scheduler of
//                     the speedup-curves literature the paper contrasts
//                     against (Section 8 / Edmonds-Pruhs): strong for
//                     average flow, weak for maximum flow.
//
// `exact_engine` selects the event engine's reference path
// (EventEngineOptions::exact) instead of the default incremental fast
// path; results are bit-identical either way.  SJF and RoundRobin are
// dynamic policies, so they run on the reference loop even with the flag
// off — the flag is still honored for uniformity.
#pragma once

#include "src/sched/scheduler.h"

namespace pjsched::sched {

struct FifoPolicy;
struct BwfPolicy;
struct LifoPolicy;
struct SjfPolicy;
struct RoundRobinPolicy;
struct EquiPolicy;

template <typename Policy>
class EventScheduler final : public Scheduler {
 public:
  explicit EventScheduler(bool exact_engine = false)
      : exact_engine_(exact_engine) {}

 private:
  core::StreamRunResult simulate(core::JobSource& source,
                                 const core::MachineConfig& machine,
                                 metrics::StreamingFlowStats* stats,
                                 sim::Trace* trace) override;

  bool exact_engine_;
};

using FifoScheduler = EventScheduler<FifoPolicy>;
using BwfScheduler = EventScheduler<BwfPolicy>;
using LifoScheduler = EventScheduler<LifoPolicy>;
using SjfScheduler = EventScheduler<SjfPolicy>;
using RoundRobinScheduler = EventScheduler<RoundRobinPolicy>;
using EquiScheduler = EventScheduler<EquiPolicy>;

extern template class EventScheduler<FifoPolicy>;
extern template class EventScheduler<BwfPolicy>;
extern template class EventScheduler<LifoPolicy>;
extern template class EventScheduler<SjfPolicy>;
extern template class EventScheduler<RoundRobinPolicy>;
extern template class EventScheduler<EquiPolicy>;

}  // namespace pjsched::sched
