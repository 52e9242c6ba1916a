#include "src/sched/bwf.h"

#include <algorithm>

#include "src/sim/event_engine.h"

namespace pjsched::sched {

namespace {
class BwfPolicy final : public sim::OrderPolicy {
 public:
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
}  // namespace

core::StreamRunResult BwfScheduler::simulate(
    core::JobSource& source, const core::MachineConfig& machine,
    metrics::StreamingFlowStats* stats, sim::Trace* trace) {
  BwfPolicy policy;
  sim::EventEngineOptions opt;
  opt.machine = machine;
  opt.trace = trace;
  opt.exact = exact_engine_;
  return sim::run_event_engine(source, policy, opt, stats);
}

}  // namespace pjsched::sched
