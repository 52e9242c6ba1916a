// Steal-k-first multiprogrammed work stealing (paper Section 4), as a
// Scheduler over the step engine.
//
//   k = 0  —  "admit-first":  workers admit a job from the global FIFO
//             queue whenever it is non-empty and only steal otherwise.
//             Corollary 4.3: (1+eps)-speed, max flow O((1/eps^2) max{OPT, ln n})
//             with high probability.
//   k > 0  —  "steal-k-first": a worker must fail k consecutive steal
//             attempts before it may admit a new job; larger k approximates
//             FIFO more closely (the paper uses k = 16 empirically and
//             recommends k on the order of m).
//             Theorem 4.1: (k+1+eps)-speed, same flow bound.
#pragma once

#include <cstdint>

#include "src/sched/scheduler.h"

namespace pjsched::sched {

class WorkStealingScheduler final : public Scheduler {
 public:
  /// `steal_k`: failed steals required before admission (0 = admit-first).
  /// `seed`: randomness for victim selection and per-step worker order.
  /// `admit_by_weight`: extension — admit the heaviest queued job instead
  /// of the oldest (BWF-flavoured admission for weighted max flow; the
  /// paper leaves weighted work stealing open).
  /// `steal_half`: extension — a successful steal migrates half the
  /// victim's deque instead of one node ("-half" suffix in names).
  explicit WorkStealingScheduler(unsigned steal_k = 0, std::uint64_t seed = 1,
                                 bool admit_by_weight = false,
                                 bool steal_half = false)
      : steal_k_(steal_k),
        seed_(seed),
        admit_by_weight_(admit_by_weight),
        steal_half_(steal_half) {}

  std::string name() const override;

  unsigned steal_k() const { return steal_k_; }
  bool admit_by_weight() const { return admit_by_weight_; }
  bool steal_half() const { return steal_half_; }

 private:
  core::StreamRunResult simulate(core::JobSource& source,
                                 const core::MachineConfig& machine,
                                 metrics::StreamingFlowStats* stats,
                                 sim::Trace* trace,
                                 std::vector<core::Time>* completion) override;

  unsigned steal_k_;
  std::uint64_t seed_;
  bool admit_by_weight_;
  bool steal_half_;
};

/// Convenience aliases matching the paper's terminology.
inline WorkStealingScheduler make_admit_first(std::uint64_t seed = 1) {
  return WorkStealingScheduler(0, seed);
}
inline WorkStealingScheduler make_steal_k_first(unsigned k,
                                                std::uint64_t seed = 1) {
  return WorkStealingScheduler(k, seed);
}

}  // namespace pjsched::sched
