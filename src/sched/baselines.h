// Non-paper baseline schedulers, used by benches to contrast FIFO/BWF/work
// stealing against policies known to be bad (or unrealistically clairvoyant)
// for maximum flow time:
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
#pragma once

#include "src/sched/scheduler.h"

namespace pjsched::sched {

// Every baseline takes an `exact_engine` flag selecting the event engine's
// reference path (EventEngineOptions::exact) instead of the default
// incremental fast path; results are bit-identical either way.  SJF and
// RoundRobin are dynamic policies, so they run on the reference loop even
// with the flag off — the flag is still honored for uniformity.

class LifoScheduler final : public Scheduler {
 public:
  explicit LifoScheduler(bool exact_engine = false)
      : exact_engine_(exact_engine) {}
  std::string name() const override {
    return exact_engine_ ? "lifo-exact" : "lifo";
  }

 private:
  core::StreamRunResult simulate(core::JobSource& source,
                                 const core::MachineConfig& machine,
                                 metrics::StreamingFlowStats* stats,
                                 sim::Trace* trace,
                                 std::vector<core::Time>* completion) override;

  bool exact_engine_;
};

class SjfScheduler final : public Scheduler {
 public:
  explicit SjfScheduler(bool exact_engine = false)
      : exact_engine_(exact_engine) {}
  std::string name() const override {
    return exact_engine_ ? "sjf-exact" : "sjf";
  }

 private:
  core::StreamRunResult simulate(core::JobSource& source,
                                 const core::MachineConfig& machine,
                                 metrics::StreamingFlowStats* stats,
                                 sim::Trace* trace,
                                 std::vector<core::Time>* completion) override;

  bool exact_engine_;
};

class RoundRobinScheduler final : public Scheduler {
 public:
  explicit RoundRobinScheduler(bool exact_engine = false)
      : exact_engine_(exact_engine) {}
  std::string name() const override {
    return exact_engine_ ? "round-robin-exact" : "round-robin";
  }

 private:
  core::StreamRunResult simulate(core::JobSource& source,
                                 const core::MachineConfig& machine,
                                 metrics::StreamingFlowStats* stats,
                                 sim::Trace* trace,
                                 std::vector<core::Time>* completion) override;

  bool exact_engine_;
};

class EquiScheduler final : public Scheduler {
 public:
  explicit EquiScheduler(bool exact_engine = false)
      : exact_engine_(exact_engine) {}
  std::string name() const override {
    return exact_engine_ ? "equi-exact" : "equi";
  }

 private:
  core::StreamRunResult simulate(core::JobSource& source,
                                 const core::MachineConfig& machine,
                                 metrics::StreamingFlowStats* stats,
                                 sim::Trace* trace,
                                 std::vector<core::Time>* completion) override;

  bool exact_engine_;
};

}  // namespace pjsched::sched
