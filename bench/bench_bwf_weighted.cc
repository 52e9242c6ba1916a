// Empirical companion to Theorem 7.1: Biggest-Weight-First (BWF) with
// (1+eps) speed is O(1/eps^2)-competitive for maximum *weighted* flow time
// — and no weight-oblivious policy can be, because of the Omega(W^0.4)
// lower bound without augmentation (Chekuri-Im-Moseley).
//
// Table 1: adversarial weight-spread sweep — a stream of light jobs with a
//   late heavy job.  FIFO's weighted max flow scales with the weight
//   spread W; BWF's does not.
// Table 2: eps sweep at fixed spread — BWF's ratio to the weighted lower
//   bound falls as eps grows, far below the 3/eps^2 analysis ceiling.
// Table 3: random weighted Bing-like workload — BWF vs FIFO vs LIFO on
//   max weighted flow.
#include <iostream>

#include "src/core/bounds.h"
#include "src/dag/builders.h"
#include "src/metrics/table.h"
#include "src/sched/event_schedulers.h"
#include "src/workload/distributions.h"
#include "src/workload/generator.h"

namespace {

using namespace pjsched;

// Light unit-weight jobs keep the machine saturated; one heavy job of
// weight `spread` arrives mid-stream.  A weight-oblivious FIFO makes it
// wait behind the backlog.
core::Instance spread_instance(double spread) {
  core::Instance inst;
  for (int i = 0; i < 200; ++i) {
    core::JobSpec job;
    job.arrival = static_cast<core::Time>(i) * 4.0;
    job.weight = 1.0;
    job.graph = dag::parallel_for_dag(8, 4);  // W = 34 on 8 procs, load ~1.06
    inst.jobs.push_back(std::move(job));
  }
  core::JobSpec heavy;
  heavy.arrival = 400.0;
  heavy.weight = spread;
  heavy.graph = dag::parallel_for_dag(8, 4);
  inst.jobs.push_back(std::move(heavy));
  return inst;
}

}  // namespace

int main() {
  using namespace pjsched;
  const unsigned m = 8;

  std::cout << "# Theorem 7.1: BWF vs weight-oblivious FIFO, weighted max "
               "flow (speed 1.5, m=8)\n";
  metrics::Table t1({"weight_spread", "bwf_wmax_flow", "fifo_wmax_flow",
                     "fifo_over_bwf"});
  for (double spread : {2.0, 8.0, 32.0, 128.0, 512.0}) {
    const auto inst = spread_instance(spread);
    sched::BwfScheduler bwf;
    sched::FifoScheduler fifo;
    const double b = bwf.run(inst, {m, 1.5}).max_weighted_flow;
    const double f = fifo.run(inst, {m, 1.5}).max_weighted_flow;
    t1.add_row({metrics::Table::cell(spread), metrics::Table::cell(b),
                metrics::Table::cell(f), metrics::Table::cell(f / b)});
  }
  t1.print(std::cout);

  std::cout << "\n# BWF eps sweep at spread 128 (ratio vs weighted lower "
               "bound; theory ceiling 3/eps^2 vs true OPT)\n";
  metrics::Table t2({"eps", "speed", "bwf_wmax_flow", "weighted_lb", "ratio",
                     "theory_3_over_eps2"});
  const auto inst = spread_instance(128.0);
  const double wlb = core::lower_bounds(inst, m).weighted_combined;
  for (double eps : {0.25, 0.5, 1.0, 2.0}) {
    sched::BwfScheduler bwf;
    const auto res = bwf.run(inst, {m, 1.0 + eps});
    t2.add_row({metrics::Table::cell(eps), metrics::Table::cell(1.0 + eps),
                metrics::Table::cell(res.max_weighted_flow),
                metrics::Table::cell(wlb),
                metrics::Table::cell(res.max_weighted_flow / wlb),
                metrics::Table::cell(3.0 / (eps * eps))});
  }
  t2.print(std::cout);

  std::cout << "\n# Random weighted workload (Bing sizes, weights in "
               "{1,4,16,64}), QPS 900, m=16, speed 1.25\n";
  const auto dist = workload::bing_distribution();
  workload::GeneratorConfig gen;
  gen.num_jobs = 5000;
  gen.qps = 900.0;
  gen.seed = 71;
  gen.weight_classes = {1.0, 4.0, 16.0, 64.0};
  const auto winst = workload::generate_instance(dist, gen);
  metrics::Table t3({"scheduler", "wmax_flow_ms", "max_flow_ms"});
  sched::BwfScheduler bwf;
  sched::FifoScheduler fifo;
  sched::LifoScheduler lifo;
  for (sched::Scheduler* s :
       {static_cast<sched::Scheduler*>(&bwf),
        static_cast<sched::Scheduler*>(&fifo),
        static_cast<sched::Scheduler*>(&lifo)}) {
    const auto res = s->run(winst, {16, 1.25});
    t3.add_row({res.scheduler_name,
                metrics::Table::cell(res.max_weighted_flow / gen.units_per_ms),
                metrics::Table::cell(res.max_flow / gen.units_per_ms)});
  }
  t3.print(std::cout);
  return 0;
}
