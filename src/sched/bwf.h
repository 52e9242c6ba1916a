// Biggest-Weight-First (paper Section 7).
//
// Identical machinery to FIFO, but active jobs are ordered by *decreasing
// weight* (ties: earlier arrival, then job index).  Theorem 7.1: BWF is
// (1+eps)-speed O(1/eps^2)-competitive for maximum weighted flow time — the
// strongest result possible online given the Omega(W^0.4) lower bound
// without resource augmentation.
#pragma once

#include "src/sched/scheduler.h"

namespace pjsched::sched {

class BwfScheduler final : public Scheduler {
 public:
  /// `exact_engine` selects the event engine's reference path
  /// (EventEngineOptions::exact) instead of the default incremental fast
  /// path; results are bit-identical either way.
  explicit BwfScheduler(bool exact_engine = false)
      : exact_engine_(exact_engine) {}
  std::string name() const override {
    return exact_engine_ ? "bwf-exact" : "bwf";
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
