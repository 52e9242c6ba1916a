// Empirical companion to Theorem 4.1 / Corollaries 4.2-4.3: steal-k-first
// with (k+1+eps) speed has max flow O((1/eps^2) * max{OPT, ln n}) w.h.p.
//
// Two sweeps:
//   1. admit-first (k = 0) with speed 1+eps over eps: the measured
//      max-flow-to-bound ratio must shrink as eps grows and sit far below
//      the analysis's 65/eps^2 * (OPT + ln n) ceiling;
//   2. steal-k-first at its theorem speed k+1+eps over k: the flow bound
//      holds for every k (the speed requirement is what grows).
#include <cmath>
#include <iostream>

#include "src/core/bounds.h"
#include "src/metrics/table.h"
#include "src/sched/work_stealing.h"
#include "src/workload/distributions.h"
#include "src/workload/generator.h"

int main() {
  using namespace pjsched;

  const auto dist = workload::bing_distribution();
  workload::GeneratorConfig gen;
  gen.num_jobs = 5000;
  gen.qps = 1200.0;  // high utilization on m = 16
  gen.seed = 23;
  const auto inst = workload::generate_instance(dist, gen);
  const unsigned m = 16;
  const double opt_lb = core::lower_bounds(inst, m).combined;
  const double ln_n = std::log(static_cast<double>(inst.size()));
  const double bound_base = std::max(opt_lb, ln_n);

  std::cout << "# Theorem 4.1 shape on Bing @ QPS 1200, m=16, n="
            << inst.size() << "; OPT lower bound = " << opt_lb
            << " units, ln n = " << ln_n << "\n";

  std::cout << "\n# sweep 1: admit-first (k=0), speed 1+eps (Corollary 4.3)\n";
  metrics::Table t1({"eps", "speed", "max_flow", "flow_over_maxOPTlnN",
                     "theory_65_over_eps2"});
  for (double eps : {0.25, 0.5, 1.0, 2.0}) {
    sched::WorkStealingScheduler ws(0, 31);
    const auto res = ws.run(inst, {m, 1.0 + eps});
    t1.add_row({metrics::Table::cell(eps), metrics::Table::cell(1.0 + eps),
                metrics::Table::cell(res.max_flow),
                metrics::Table::cell(res.max_flow / bound_base),
                metrics::Table::cell(65.0 / (eps * eps))});
  }
  t1.print(std::cout);

  std::cout << "\n# sweep 2: steal-k-first at theorem speed k+1+eps "
               "(eps = 0.5)\n";
  metrics::Table t2(
      {"k", "speed", "max_flow", "flow_over_maxOPTlnN", "steals", "successes"});
  const double eps = 0.5;
  for (unsigned k : {0u, 1u, 2u, 4u, 8u, 16u}) {
    sched::WorkStealingScheduler ws(k, 37);
    const auto res = ws.run(inst, {m, k + 1.0 + eps});
    t2.add_row({metrics::Table::cell(std::uint64_t{k}),
                metrics::Table::cell(k + 1.0 + eps),
                metrics::Table::cell(res.max_flow),
                metrics::Table::cell(res.max_flow / bound_base),
                metrics::Table::cell(res.stats.steal_attempts),
                metrics::Table::cell(res.stats.successful_steals)});
  }
  t2.print(std::cout);
  return 0;
}
