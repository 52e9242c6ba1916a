// Empirical companion to Theorem 3.1: FIFO with (1+eps) speed is
// O(1/eps)-competitive for maximum unweighted flow time.
//
// Sweeps eps on two instance families and reports FIFO's max flow against
// the OPT lower bound together with the theorem's 3/eps ceiling.  The
// measured ratio is computed against a *lower bound* on OPT, so it may
// exceed what the true-OPT ratio would be; the shape to verify is that the
// ratio (i) falls as eps grows and (ii) stays far below 3/eps on realistic
// load, and that at eps ~ 0 (speed 1) FIFO merely keeps pace under
// overload.
#include <iostream>

#include "src/core/bounds.h"
#include "src/dag/builders.h"
#include "src/metrics/table.h"
#include "src/sched/event_schedulers.h"
#include "src/workload/distributions.h"
#include "src/workload/generator.h"

namespace {

using namespace pjsched;

// Overloaded burst: wide jobs arriving faster than a 1-speed machine can
// drain, so speed augmentation is what keeps the backlog bounded — the
// regime Theorem 3.1 is about.
core::Instance burst_instance() {
  core::Instance inst;
  for (int i = 0; i < 400; ++i) {
    core::JobSpec job;
    job.arrival = static_cast<core::Time>(i) * 7.0;  // load = 82/(7*8) ~ 1.46
    job.graph = dag::parallel_for_dag(16, 5);        // W = 82, P = 7
    inst.jobs.push_back(std::move(job));
  }
  return inst;
}

void sweep(const core::Instance& inst, unsigned m, const char* label) {
  std::cout << "# " << label << " (m=" << m << ")\n";
  metrics::Table table({"eps", "speed", "fifo_max_flow", "opt_lower_bound",
                        "ratio", "theory_3_over_eps"});
  const double lb = core::lower_bounds(inst, m).combined;
  sched::FifoScheduler fifo;
  for (double eps : {0.1, 0.25, 0.5, 1.0, 2.0}) {
    const auto res = fifo.run(inst, {m, 1.0 + eps});
    table.add_row({metrics::Table::cell(eps),
                   metrics::Table::cell(1.0 + eps),
                   metrics::Table::cell(res.max_flow),
                   metrics::Table::cell(lb),
                   metrics::Table::cell(res.max_flow / lb),
                   metrics::Table::cell(3.0 / eps)});
  }
  table.print(std::cout);
  std::cout << "\n";
}

}  // namespace

int main() {
  using namespace pjsched;

  sweep(burst_instance(), 8,
        "Theorem 3.1 shape: overloaded burst of wide jobs");

  // Realistic operating point: Bing workload at high utilization.
  const auto dist = workload::bing_distribution();
  workload::GeneratorConfig gen;
  gen.num_jobs = 5000;
  gen.qps = 1200.0;
  gen.seed = 17;
  const auto inst = workload::generate_instance(dist, gen);
  sweep(inst, 16, "Theorem 3.1 shape: Bing workload at QPS 1200");
  return 0;
}
