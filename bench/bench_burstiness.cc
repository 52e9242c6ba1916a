// Extension experiment: arrival burstiness and maximum flow time.
//
// The paper's evaluation uses Poisson arrivals; production traffic is
// burstier.  This bench holds the *average* rate fixed and sweeps the
// burst/calm split of a Markov-modulated Poisson process, reporting max
// flow, p99, and the tightest 0.1%-miss SLO each scheduler could promise.
// Expected shape: burstiness inflates every scheduler's max flow, but the
// FIFO-like policies (FIFO, steal-16-first) degrade most gracefully, and
// admit-first's sequential-execution pathology is amplified.
#include <iostream>

#include "src/core/run.h"
#include "src/metrics/stats.h"
#include "src/metrics/table.h"
#include "src/workload/arrivals.h"
#include "src/workload/distributions.h"
#include "src/workload/generator.h"

int main() {
  using namespace pjsched;
  const unsigned m = 16;
  const auto dist = workload::bing_distribution();
  const double avg_qps = 1000.0;
  const std::size_t jobs = 10000;

  struct Shape {
    const char* label;
    double burst_factor;  // burst rate = avg * f, calm = avg * (2 - f)
  };
  for (const Shape& shape : {Shape{"poisson (no bursts)", 1.0},
                             Shape{"mild bursts (1.5x/0.5x)", 1.5},
                             Shape{"heavy bursts (1.8x/0.2x)", 1.8}}) {
    // Build the arrival times at the same average rate.
    std::vector<double> arrivals_ms;
    if (shape.burst_factor == 1.0) {
      workload::PoissonArrivals arr(avg_qps, sim::Rng(61));
      arrivals_ms = workload::take_arrivals(arr, jobs);
    } else {
      workload::MmppArrivals arr(avg_qps * shape.burst_factor,
                                 avg_qps * (2.0 - shape.burst_factor),
                                 /*mean_sojourn_ms=*/250.0, sim::Rng(61));
      arrivals_ms = workload::take_arrivals(arr, jobs);
    }
    workload::GeneratorConfig gen;
    gen.units_per_ms = 100.0;
    gen.seed = 71;
    const auto inst =
        workload::generate_instance_with_arrivals(dist, gen, arrivals_ms);

    std::cout << "# " << shape.label << " @ avg " << avg_qps
              << " QPS, m=16, speed 1\n";
    metrics::Table table(
        {"scheduler", "max_flow_ms", "p99_ms", "slo_p999_ms"});
    for (const char* name : {"opt", "fifo", "steal-16-first", "admit-first"}) {
      auto spec = core::parse_scheduler(name);
      spec.seed = 13;
      const auto res = core::run_scheduler(inst, spec, {m, 1.0});
      const double slo = metrics::tightest_slo(res.job_flow, 0.001);
      table.add_row(
          {res.scheduler_name,
           metrics::Table::cell(res.max_flow / gen.units_per_ms),
           metrics::Table::cell(res.flow.p99 / gen.units_per_ms),
           metrics::Table::cell(slo / gen.units_per_ms)});
    }
    table.print(std::cout);
    std::cout << "\n";
  }
  return 0;
}
