// The paper's idealized FIFO scheduler (Section 3).
//
// At every decision point the active jobs are ordered by arrival time
// (ties: job index), and each job in order is granted one processor per
// available node until processors run out.  FIFO preempts and reallocates
// at every event, at zero cost — the paper's Theorem 3.1 shows this
// idealized scheduler is (1+eps)-speed O(1/eps)-competitive for maximum
// unweighted flow time.
#pragma once

#include "src/sched/scheduler.h"

namespace pjsched::sched {

class FifoScheduler final : public Scheduler {
 public:
  /// `exact_engine` selects the event engine's reference path
  /// (EventEngineOptions::exact) instead of the default incremental fast
  /// path; results are bit-identical either way.
  explicit FifoScheduler(bool exact_engine = false)
      : exact_engine_(exact_engine) {}
  std::string name() const override {
    return exact_engine_ ? "fifo-exact" : "fifo";
  }

 private:
  core::StreamRunResult simulate(core::JobSource& source,
                                 const core::MachineConfig& machine,
                                 metrics::StreamingFlowStats* stats,
                                 sim::Trace* trace) override;

  bool exact_engine_;
};

}  // namespace pjsched::sched
