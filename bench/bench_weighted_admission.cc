// Extension experiment: weighted work stealing.
//
// The paper proves BWF is scalable for weighted max flow but leaves a
// *distributed* weighted scheduler open.  This bench evaluates the natural
// candidate implemented in pjsched: steal-k-first whose global-queue
// admission picks the heaviest queued job instead of the oldest
// ("-bwf" variants).  On a weighted Bing-like workload the weighted
// admission consistently cuts max weighted flow over plain FIFO admission,
// approaching the centralized BWF, while leaving unweighted max flow close
// to the paper's scheduler.
#include <iostream>

#include "src/metrics/table.h"
#include "src/sched/event_schedulers.h"
#include "src/sched/work_stealing.h"
#include "src/workload/distributions.h"
#include "src/workload/generator.h"

int main() {
  using namespace pjsched;
  const unsigned m = 16;
  const auto dist = workload::bing_distribution();

  for (double qps : {900.0, 1200.0}) {
    workload::GeneratorConfig gen;
    gen.num_jobs = 8000;
    gen.qps = qps;
    gen.units_per_ms = 100.0;
    gen.seed = 202;
    gen.weight_classes = {1.0, 4.0, 16.0, 64.0};
    const auto inst = workload::generate_instance(dist, gen);

    std::cout << "# weighted Bing workload @ QPS " << qps << " (util "
              << workload::utilization(dist, qps, m)
              << "), weights {1,4,16,64}, m=16, speed 1\n";
    metrics::Table table(
        {"scheduler", "wmax_flow_ms", "max_flow_ms", "mean_flow_ms"});

    const auto add = [&](const core::StreamRunResult& res) {
      table.add_row({res.scheduler_name,
                     metrics::Table::cell(res.max_weighted_flow /
                                          gen.units_per_ms),
                     metrics::Table::cell(res.max_flow / gen.units_per_ms),
                     metrics::Table::cell(res.mean_flow / gen.units_per_ms)});
    };

    sched::BwfScheduler bwf;
    add(bwf.run(inst, {m, 1.0}));
    for (unsigned k : {0u, 16u}) {
      sched::WorkStealingScheduler plain(k, 77, false);
      sched::WorkStealingScheduler weighted(k, 77, true);
      add(plain.run(inst, {m, 1.0}));
      add(weighted.run(inst, {m, 1.0}));
    }
    table.print(std::cout);
    std::cout << "\n";
  }
  return 0;
}
