// Scenario example: run the *same* workload through the discrete simulator
// and the real threaded runtime, side by side — the validation loop the
// paper's evaluation rests on (its OPT is simulated, its work stealing is
// real TBB).
//
// A small finance-shaped instance is (a) simulated under admit-first and
// steal-16-first, and (b) replayed on the threaded pool with spinning node
// bodies at both admission policies.  Columns are directly comparable in
// milliseconds.  On a many-core host the real numbers approach the
// simulated ones; on a small container the real runtime serializes and the
// simulator shows what the same schedule would do on a full machine.
//
//   $ ./sim_vs_real [jobs] [workers]     (defaults 40, hardware)
#include <iostream>
#include <stdexcept>
#include <thread>

#include "src/core/parse.h"
#include "src/core/run.h"
#include "src/metrics/table.h"
#include "src/runtime/replayer.h"
#include "src/workload/distributions.h"
#include "src/workload/generator.h"

int main(int argc, char** argv) {
  using namespace pjsched;
  std::size_t jobs = 40;
  unsigned workers = std::max(2u, std::thread::hardware_concurrency());
  try {
    if (argc > 1) jobs = core::parse_unsigned<std::size_t>(argv[1]);
    if (argc > 2) workers = core::parse_unsigned<unsigned>(argv[2]);
    if (argc > 3 || jobs == 0 || workers == 0)
      throw std::invalid_argument("counts must be >= 1");
  } catch (const std::invalid_argument&) {
    std::cerr << "usage: " << argv[0] << " [jobs] [workers]  (each >= 1)\n";
    return 2;
  }

  const auto dist = workload::finance_distribution();
  workload::GeneratorConfig gen;
  gen.num_jobs = jobs;
  gen.qps = 150.0;
  gen.units_per_ms = 10.0;  // 0.1 ms units keep the replay brief
  gen.seed = 99;
  const auto inst = workload::generate_instance(dist, gen);

  std::cout << "Same instance, simulator vs real runtime (" << jobs
            << " finance jobs @ 150 QPS, " << workers << " workers)\n\n";

  metrics::Table table({"engine", "policy", "max_flow_ms", "mean_flow_ms"});
  for (unsigned k : {0u, 16u}) {
    core::SchedulerSpec spec;
    spec.kind = k == 0 ? core::SchedulerKind::kAdmitFirst
                       : core::SchedulerKind::kStealKFirst;
    spec.steal_k = k;
    spec.seed = 5;
    const auto sim = core::run_scheduler(inst, spec, {workers, 1.0});
    table.add_row({"simulated", sim.scheduler_name,
                   metrics::Table::cell(sim.max_flow / gen.units_per_ms),
                   metrics::Table::cell(sim.mean_flow / gen.units_per_ms)});
  }
  // A replay whose result is discarded runs before each measured one, on a
  // pool of the same configuration (a replay needs a fresh pool).  The
  // first ~second of replay in a process can stall for hundreds of
  // milliseconds on a small VM, and that stall would otherwise land in the
  // first real-runtime row; warm-ups much shorter than the measured replay
  // were seen to leave it there, so the warm-up replays the same instance.
  for (unsigned k : {0u, 16u}) {
    const runtime::PoolOptions pool_options{
        .workers = workers, .steal_k = k, .seed = 5};
    runtime::ReplayOptions opts;
    // One 0.1 ms unit = 100 us of real spinning: wall time == sim time.
    opts.ns_per_unit = 100000.0;
    {
      runtime::ThreadPool warm(pool_options);
      runtime::replay_instance(warm, inst, opts);
    }
    runtime::ThreadPool pool(pool_options);
    const auto rep = runtime::replay_instance(pool, inst, opts);
    table.add_row({"real-runtime",
                   k == 0 ? "admit-first" : "steal-16-first",
                   metrics::Table::cell(rep.flow_seconds.max * 1000.0),
                   metrics::Table::cell(rep.flow_seconds.mean * 1000.0)});
  }
  table.print(std::cout);
  std::cout << "\n(The replay spins " << 100.0
            << " us per simulated work unit, so simulated and wall-clock "
               "milliseconds share a scale.)\n";
  return 0;
}
