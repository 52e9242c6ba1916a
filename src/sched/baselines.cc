#include "src/sched/baselines.h"

#include <algorithm>

#include "src/sim/event_engine.h"

namespace pjsched::sched {

namespace {

class LifoPolicy final : public sim::OrderPolicy {
 public:
  std::string name() const override { return "lifo"; }
  void order(const sim::PolicyContext& ctx,
             std::vector<core::JobId>& active) override {
    std::stable_sort(active.begin(), active.end(),
                     [&ctx](core::JobId a, core::JobId b) {
                       return ctx.arrival(a) > ctx.arrival(b);
                     });
  }
  // Time-invariant: descending arrival, ties in base (index) order.
  bool has_static_order() const override { return true; }
  double static_key(const sim::PolicyContext& ctx,
                    core::JobId job) override {
    return -ctx.arrival(job);
  }
};

// SJF consults remaining_work, which changes as jobs execute — no static
// order; it keeps the exact per-slice path.
class SjfPolicy final : public sim::OrderPolicy {
 public:
  std::string name() const override { return "sjf"; }
  void order(const sim::PolicyContext& ctx,
             std::vector<core::JobId>& active) override {
    std::stable_sort(active.begin(), active.end(),
                     [&ctx](core::JobId a, core::JobId b) {
                       return ctx.remaining_work(a) < ctx.remaining_work(b);
                     });
  }
};

// RoundRobin's rotation depends on the decision-point count — no static
// order; it keeps the exact per-slice path.
class RoundRobinPolicy final : public sim::OrderPolicy {
 public:
  std::string name() const override { return "round-robin"; }
  void order(const sim::PolicyContext&,
             std::vector<core::JobId>& active) override {
    // Rotate the base (arrival) order by one more position each decision
    // point, so over time each active job gets priority in turn.
    if (active.size() > 1)
      std::rotate(active.begin(),
                  active.begin() + (rotation_++ % active.size()),
                  active.end());
  }

 private:
  std::size_t rotation_ = 0;
};

class EquiPolicy final : public sim::OrderPolicy {
 public:
  std::string name() const override { return "equi"; }
  void order(const sim::PolicyContext& ctx,
             std::vector<core::JobId>& active) override {
    // Share order is arrival order (deterministic); the equal split comes
    // from processor_cap, and leftover redistribution keeps the machine
    // work-conserving.
    std::stable_sort(active.begin(), active.end(),
                     [&ctx](core::JobId a, core::JobId b) {
                       return ctx.arrival(a) < ctx.arrival(b);
                     });
  }
  // The share *order* is time-invariant (arrival order); the equal split
  // still comes from processor_cap, which both engine paths consult at
  // every decision point.
  bool has_static_order() const override { return true; }
  double static_key(const sim::PolicyContext& ctx,
                    core::JobId job) override {
    return ctx.arrival(job);
  }
  unsigned processor_cap(const sim::PolicyContext&, core::JobId,
                         unsigned processors,
                         std::size_t active_jobs) override {
    const auto n = static_cast<unsigned>(active_jobs);
    return n == 0 ? processors : (processors + n - 1) / n;
  }
};

template <typename Policy>
core::StreamRunResult run_with(core::JobSource& source,
                               const core::MachineConfig& machine,
                               metrics::StreamingFlowStats* stats,
                               sim::Trace* trace,
                               std::vector<core::Time>* completion,
                               bool exact_engine) {
  Policy policy;
  sim::EventEngineOptions opt;
  opt.machine = machine;
  opt.trace = trace;
  opt.exact = exact_engine;
  return sim::run_event_engine(source, policy, opt, stats, completion);
}

}  // namespace

core::StreamRunResult LifoScheduler::simulate(
    core::JobSource& source, const core::MachineConfig& machine,
    metrics::StreamingFlowStats* stats, sim::Trace* trace,
    std::vector<core::Time>* completion) {
  return run_with<LifoPolicy>(source, machine, stats, trace, completion,
                              exact_engine_);
}

core::StreamRunResult SjfScheduler::simulate(
    core::JobSource& source, const core::MachineConfig& machine,
    metrics::StreamingFlowStats* stats, sim::Trace* trace,
    std::vector<core::Time>* completion) {
  return run_with<SjfPolicy>(source, machine, stats, trace, completion,
                             exact_engine_);
}

core::StreamRunResult RoundRobinScheduler::simulate(
    core::JobSource& source, const core::MachineConfig& machine,
    metrics::StreamingFlowStats* stats, sim::Trace* trace,
    std::vector<core::Time>* completion) {
  return run_with<RoundRobinPolicy>(source, machine, stats, trace, completion,
                                    exact_engine_);
}

core::StreamRunResult EquiScheduler::simulate(
    core::JobSource& source, const core::MachineConfig& machine,
    metrics::StreamingFlowStats* stats, sim::Trace* trace,
    std::vector<core::Time>* completion) {
  return run_with<EquiPolicy>(source, machine, stats, trace, completion,
                              exact_engine_);
}

}  // namespace pjsched::sched
