// Shared driver for the three Figure-2 reproduction benches.
//
// The paper's Figure 2 plots, for each workload (Bing / finance /
// log-normal) and each QPS operating point (low/medium/high utilization on
// m = 16 processors), the maximum flow time achieved by the simulated OPT
// lower bound, steal-k-first (k = 16), and admit-first.  Each bench binary
// prints that exact series as a table (plus FIFO for reference, which the
// paper discusses as the idealized policy work stealing approximates).
//
// Expected shape (paper Section 6): OPT <= steal-16-first <= admit-first,
// with the admit-first gap widening as utilization grows.
#pragma once

#include <iostream>
#include <vector>

#include "bench/bench_args.h"
#include "src/core/experiment.h"

namespace pjsched::benchfig2 {

/// Jobs per QPS point when --jobs is absent.
constexpr std::size_t kDefaultJobs = 10000;

inline void run_fig2(const workload::WorkDistribution& dist,
                     std::vector<double> qps_values, const bench::Args& args,
                     const char* figure_label) {
  core::ExperimentConfig cfg;
  cfg.processors = 16;  // the paper's dual 8-core Xeon testbed
  cfg.num_jobs = args.jobs;
  // One work unit = 10 microseconds.  This matters for work stealing: a
  // steal attempt costs one step, and real TBB steals cost microseconds,
  // so the simulated steal/work cost ratio must match reality for the
  // empirical comparison (the paper notes the k steal attempts per
  // admission are "negligible in practice").
  cfg.units_per_ms = 100.0;
  cfg.qps_values = std::move(qps_values);
  cfg.seed = args.seed;

  core::SchedulerSpec opt;
  opt.kind = core::SchedulerKind::kOptBound;
  core::SchedulerSpec steal16;
  steal16.kind = core::SchedulerKind::kStealKFirst;
  steal16.steal_k = 16;  // the paper's empirical k
  steal16.seed = args.seed;
  core::SchedulerSpec admit;
  admit.kind = core::SchedulerKind::kAdmitFirst;
  admit.seed = args.seed;
  core::SchedulerSpec fifo;
  fifo.kind = core::SchedulerKind::kFifo;
  cfg.schedulers = {opt, steal16, admit, fifo};

  std::cout << "# " << figure_label << " — workload '" << dist.name()
            << "', m=" << cfg.processors << ", jobs=" << cfg.num_jobs
            << ", seed=" << cfg.seed << "\n"
            << "# paper shape: OPT <= steal-16-first <= admit-first; "
               "gap widens with load\n";
  const auto rows = core::run_experiment(dist, cfg);
  const auto table = core::rows_to_table(rows);
  if (args.csv)
    table.print_csv(std::cout);
  else
    table.print(std::cout);
}

}  // namespace pjsched::benchfig2
