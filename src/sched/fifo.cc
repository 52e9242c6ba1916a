#include "src/sched/fifo.h"

#include <algorithm>

#include "src/sim/event_engine.h"

namespace pjsched::sched {

namespace {
class FifoPolicy final : public sim::OrderPolicy {
 public:
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
}  // namespace

core::StreamRunResult FifoScheduler::simulate(
    core::JobSource& source, const core::MachineConfig& machine,
    metrics::StreamingFlowStats* stats, sim::Trace* trace,
    std::vector<core::Time>* completion) {
  FifoPolicy policy;
  sim::EventEngineOptions opt;
  opt.machine = machine;
  opt.trace = trace;
  opt.exact = exact_engine_;
  return sim::run_event_engine(source, policy, opt, stats, completion);
}

}  // namespace pjsched::sched
