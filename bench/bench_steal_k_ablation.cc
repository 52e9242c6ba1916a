// Ablation over the steal-k-first parameter k (paper Section 4 discussion
// and Section 6): at equal speed, larger k makes work stealing behave more
// like FIFO — free workers parallelize already-admitted jobs before
// admitting new ones — which lowers max flow time under load, with
// diminishing returns once k reaches the order of m.
//
// The paper's empirical choice is k = 16 on m = 16.  Expected shape: max
// flow falls from k = 0 (admit-first) as k grows toward ~m, then flattens;
// the effect is strongest at high utilization.
#include <iostream>

#include "src/metrics/table.h"
#include "src/sched/event_schedulers.h"
#include "src/sched/opt_bound.h"
#include "src/sched/work_stealing.h"
#include "src/workload/distributions.h"
#include "src/workload/generator.h"

int main() {
  using namespace pjsched;
  const unsigned m = 16;
  const auto dist = workload::bing_distribution();

  for (double qps : {800.0, 1200.0}) {
    workload::GeneratorConfig gen;
    gen.num_jobs = 10000;
    gen.qps = qps;
    gen.units_per_ms = 100.0;  // 10 us/unit: realistic steal/work cost ratio
    gen.seed = 97;
    const auto inst = workload::generate_instance(dist, gen);

    sched::OptLowerBound opt;
    const double opt_flow = opt.run(inst, {m, 1.0}).max_flow;
    sched::FifoScheduler fifo;
    const double fifo_flow = fifo.run(inst, {m, 1.0}).max_flow;

    std::cout << "# Bing @ QPS " << qps << " (util "
              << workload::utilization(dist, qps, m)
              << "), m=16, speed 1; OPT bound " << opt_flow / gen.units_per_ms
              << " ms, FIFO " << fifo_flow / gen.units_per_ms << " ms\n";
    metrics::Table table({"scheduler", "max_flow_ms", "ratio_to_opt",
                          "steal_attempts", "successful_steals"});
    for (unsigned k : {0u, 1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
      sched::WorkStealingScheduler ws(k, 55);
      const auto res = ws.run(inst, {m, 1.0});
      table.add_row({res.scheduler_name,
                     metrics::Table::cell(res.max_flow / gen.units_per_ms),
                     metrics::Table::cell(res.max_flow / opt_flow),
                     metrics::Table::cell(res.stats.steal_attempts),
                     metrics::Table::cell(res.stats.successful_steals)});
    }
    // Steal-half ablation rows (extension): batch steals at k in {0, 16}.
    for (unsigned k : {0u, 16u}) {
      sched::WorkStealingScheduler ws(k, 55, false, true);
      const auto res = ws.run(inst, {m, 1.0});
      table.add_row({res.scheduler_name,
                     metrics::Table::cell(res.max_flow / gen.units_per_ms),
                     metrics::Table::cell(res.max_flow / opt_flow),
                     metrics::Table::cell(res.stats.steal_attempts),
                     metrics::Table::cell(res.stats.successful_steals)});
    }
    table.print(std::cout);
    std::cout << "\n";
  }
  return 0;
}
