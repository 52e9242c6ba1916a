#include "src/sched/event_schedulers.h"

#include <algorithm>

#include "src/sim/event_engine.h"

namespace pjsched::sched {

struct FifoPolicy final : sim::OrderPolicy {
  std::string name() const override { return "fifo"; }
  void order(const sim::PolicyContext& ctx,
             std::vector<core::JobId>& active) override {
    std::stable_sort(active.begin(), active.end(),
                     [&ctx](core::JobId a, core::JobId b) {
                       return ctx.arrival(a) < ctx.arrival(b);
                     });
  }
  // FIFO's priority is time-invariant: ascending arrival, ties resolved by
  // the arrival base order — exactly the stable sort above.
  bool has_static_order() const override { return true; }
  double static_key(const sim::PolicyContext& ctx,
                    core::JobId job) override {
    return ctx.arrival(job);
  }
};

struct BwfPolicy final : sim::OrderPolicy {
  std::string name() const override { return "bwf"; }
  void order(const sim::PolicyContext& ctx,
             std::vector<core::JobId>& active) override {
    std::stable_sort(active.begin(), active.end(),
                     [&ctx](core::JobId a, core::JobId b) {
                       if (ctx.weight(a) != ctx.weight(b))
                         return ctx.weight(a) > ctx.weight(b);
                       return ctx.arrival(a) < ctx.arrival(b);
                     });
  }
  // BWF's priority is time-invariant: descending weight, ties resolved by
  // (arrival, index).  A stable sort by -weight over the arrival base order
  // breaks weight ties exactly that way, so the key alone reproduces the
  // comparator above.
  bool has_static_order() const override { return true; }
  double static_key(const sim::PolicyContext& ctx,
                    core::JobId job) override {
    return -ctx.weight(job);
  }
};

struct LifoPolicy final : sim::OrderPolicy {
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
struct SjfPolicy final : sim::OrderPolicy {
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
struct RoundRobinPolicy final : sim::OrderPolicy {
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

struct EquiPolicy final : sim::OrderPolicy {
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
core::StreamRunResult EventScheduler<Policy>::simulate(
    core::JobSource& source, const core::MachineConfig& machine,
    metrics::StreamingFlowStats* stats, sim::Trace* trace) {
  Policy policy;
  return sim::run_event_engine(
      source, policy, sim::EventEngineOptions{machine, trace, exact_engine_},
      stats);
}

template class EventScheduler<FifoPolicy>;
template class EventScheduler<BwfPolicy>;
template class EventScheduler<LifoPolicy>;
template class EventScheduler<SjfPolicy>;
template class EventScheduler<RoundRobinPolicy>;
template class EventScheduler<EquiPolicy>;

}  // namespace pjsched::sched
