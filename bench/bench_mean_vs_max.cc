// Cross-objective comparison: maximum flow vs mean flow across every
// scheduler in the library, on a size-skewed workload.
//
// Motivates the paper's objective choice (Section 1 / related work):
// policies optimized for average latency (clairvoyant SJF, fair EQUI)
// sacrifice the tail, LIFO destroys it, and FIFO-like policies — the
// idealized FIFO and its practical steal-k-first approximation — own the
// max-flow column while staying competitive on the mean.
#include <algorithm>
#include <iostream>

#include "src/core/run.h"
#include "src/metrics/table.h"
#include "src/workload/distributions.h"
#include "src/workload/generator.h"

int main() {
  using namespace pjsched;
  const unsigned m = 16;
  const auto dist = workload::bing_distribution();

  workload::GeneratorConfig gen;
  gen.num_jobs = 10000;
  gen.qps = 1100.0;
  gen.units_per_ms = 100.0;
  gen.seed = 404;
  const auto inst = workload::generate_instance(dist, gen);

  std::cout << "# Bing workload @ QPS 1100 (util "
            << workload::utilization(dist, 1100.0, m)
            << "), m=16, speed 1: the max-flow / mean-flow trade-off\n";
  metrics::Table table({"scheduler", "max_flow_ms", "mean_flow_ms",
                        "p99_flow_ms_proxy"});
  for (const char* name : {"opt", "fifo", "steal-16-first", "admit-first",
                           "equi", "sjf", "round-robin", "lifo"}) {
    auto spec = core::parse_scheduler(name);
    spec.seed = 11;
    const auto res = core::run_scheduler(inst, spec, {m, 1.0});
    // Cheap p99 proxy: sort flows.
    std::vector<double> flows = res.job_flow;
    std::sort(flows.begin(), flows.end());
    const double p99 = flows[flows.size() * 99 / 100];
    table.add_row({res.scheduler_name,
                   metrics::Table::cell(res.max_flow / gen.units_per_ms),
                   metrics::Table::cell(res.mean_flow / gen.units_per_ms),
                   metrics::Table::cell(p99 / gen.units_per_ms)});
  }
  table.print(std::cout);
  return 0;
}
