// Robustness harness: how do FIFO, BWF, and work stealing compare when the
// machine degrades mid-run?
//
// Section 1 (simulator): the same Bing-workload instance is scheduled under
// three machine profiles — fault-free, losing half the processors mid-run,
// and losing then recovering them — and the max/mean flow times are
// tabulated per scheduler.  The paper's guarantees assume a fixed (m, s)
// machine; this bench measures how gracefully each policy's max flow time
// degrades when that assumption breaks.  FIFO/BWF run on the event engine
// (exact processor/speed changes); work stealing runs on the step engine
// (fail-stop workers, lowest indices survive, in-flight work is lost and
// recovered by stealing).
//
// Section 2 (real runtime): a ThreadPool with injected task failures, a
// stalled worker and per-job deadlines — demonstrating that overload +
// faults degrade into counted outcomes (failed / deadline-expired) instead
// of hangs or crashes.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_args.h"
#include "src/core/run.h"
#include "src/core/types.h"
#include "src/metrics/table.h"
#include "src/runtime/dag_executor.h"
#include "src/runtime/thread_pool.h"
#include "src/workload/distributions.h"
#include "src/workload/generator.h"

namespace {

using namespace pjsched;
using bench::Args;

void run_simulated(const Args& args) {
  workload::GeneratorConfig gen;
  gen.num_jobs = args.jobs;
  gen.qps = 700.0;  // medium utilization on m = 16 (see bench_fig2_bing)
  gen.units_per_ms = 100.0;
  gen.seed = args.seed;
  const workload::DiscreteWorkDistribution dist(workload::bing_distribution());
  const core::Instance inst = workload::generate_instance(dist, gen);

  // Degradation times relative to the arrival horizon, in work units.
  const double horizon =
      static_cast<double>(args.jobs) / gen.qps * 1000.0 * gen.units_per_ms;
  const core::MachineConfig healthy{16, 1.0, {}};
  const core::MachineConfig half_loss{
      16, 1.0, {{horizon * 0.5, 8, 1.0}}};
  const core::MachineConfig lose_recover{
      16, 1.0, {{horizon / 3.0, 8, 1.0}, {horizon * 2.0 / 3.0, 16, 1.0}}};
  const std::vector<std::pair<const char*, const core::MachineConfig*>>
      scenarios = {{"healthy", &healthy},
                   {"half-loss", &half_loss},
                   {"lose-recover", &lose_recover}};
  const std::vector<std::string> schedulers = {"fifo", "bwf",
                                               "steal-16-first"};

  std::cout << "# fault degradation — workload 'bing', m=16 with mid-run "
               "processor loss, jobs="
            << args.jobs << ", seed=" << args.seed << "\n"
            << "# half-loss: m 16->8 at 50% of the arrival horizon; "
               "lose-recover: 16->8 at 1/3, back to 16 at 2/3\n";
  metrics::Table table({"scenario", "scheduler", "max_flow_ms",
                        "mean_flow_ms", "makespan_ms"});
  for (const auto& [label, machine] : scenarios) {
    for (const std::string& name : schedulers) {
      auto spec = core::parse_scheduler(name);
      spec.seed = args.seed;
      const auto res = core::run_scheduler(inst, spec, *machine);
      table.add_row({label, res.scheduler_name,
                     metrics::Table::cell(res.max_flow / gen.units_per_ms),
                     metrics::Table::cell(res.mean_flow / gen.units_per_ms),
                     metrics::Table::cell(res.makespan / gen.units_per_ms)});
    }
  }
  if (args.csv)
    table.print_csv(std::cout);
  else
    table.print(std::cout);
}

void run_real_runtime(const Args& args) {
  using namespace std::chrono_literals;
  const std::size_t jobs = std::min<std::size_t>(args.jobs, 400);

  runtime::PoolOptions options;
  options.workers = 4;
  options.steal_k = 16;
  options.seed = args.seed;
  options.fault_plan.seed = args.seed;
  options.fault_plan.task_failure_probability = 0.01;
  options.fault_plan.worker_stalls = {{/*worker=*/3, /*stall=*/200us}};

  runtime::ThreadPool pool(options);
  for (std::size_t j = 0; j < jobs; ++j) {
    // Paced arrivals: fast enough to overload the stalled pool at times,
    // slow enough that most jobs complete.
    std::this_thread::sleep_for(60us);
    runtime::SubmitOptions submit;
    // Every 4th job carries a tight deadline some of which will expire
    // under the induced overload.
    if (j % 4 == 0) submit.deadline = 2ms;
    pool.submit(
        [](runtime::TaskContext& ctx) {
          if (ctx.cancelled()) return;
          runtime::spin_for_units(20, /*ns_per_unit=*/2000.0);
          runtime::parallel_for(ctx, 0, 8, 1, [](std::size_t, std::size_t) {
            runtime::spin_for_units(10, /*ns_per_unit=*/2000.0);
          });
        },
        std::move(submit));
  }
  pool.wait_all();
  const auto counts = pool.recorder().outcome_counts();
  const auto stats = pool.stats();
  pool.shutdown();

  std::cout << "\n# real runtime under faults — " << jobs
            << " jobs, 4 workers (one stalled), 1% injected task failures,\n"
            << "# deadlines on every 4th job\n";
  metrics::Table table({"outcome", "jobs"});
  table.add_row({"completed", metrics::Table::cell(counts.completed)});
  table.add_row({"failed", metrics::Table::cell(counts.failed)});
  table.add_row(
      {"deadline-expired", metrics::Table::cell(counts.deadline_expired)});
  if (args.csv)
    table.print_csv(std::cout);
  else
    table.print(std::cout);
  std::cout << "# faults injected: " << stats.faults_injected
            << ", tasks cancelled: " << stats.tasks_cancelled
            << ", max flow over completed: "
            << pool.recorder().max_flow_seconds() * 1000.0 << " ms\n";
  if (counts.total() != jobs) {
    std::cerr << "bench_fault_degradation: outcome counts do not cover all "
                 "jobs\n";
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = bench::parse_args(argc, argv, /*default_jobs=*/2000);
  run_simulated(args);
  run_real_runtime(args);
  return 0;
}
