// Scenario example: an option-pricing finance server (the paper's second
// real-world workload) running on the *real threaded runtime*
// (src/runtime) rather than the simulator — the closest analogue of the
// paper's extended-TBB implementation.
//
// Requests arrive online (Poisson, replayed in real time); each prices an
// option with a Monte-Carlo-style computation split into spawned chunks
// joined with wait_help.  Both admission policies run the same request
// sequence, and their measured wall-clock flow times are compared.
// (Absolute numbers depend on the host's core count — in a 1-core
// container everything serializes — but the runtime mechanics, admission
// policies, and flow accounting are the real thing.)
//
//   $ ./finance_server [requests] [paths_per_request]    (defaults 60, 20000)
#include <atomic>
#include <chrono>
#include <cmath>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "src/core/parse.h"
#include "src/metrics/table.h"
#include "src/runtime/thread_pool.h"
#include "src/sim/rng.h"
#include "src/workload/arrivals.h"

namespace {

using namespace pjsched;

// Prices a range of simulated payoff paths for one request: a stand-in
// for the real CPU-bound kernel, deterministic per (request, path).
double price_chunk(std::uint64_t request, std::size_t lo, std::size_t hi) {
  double acc = 0.0;
  for (std::size_t p = lo; p < hi; ++p) {
    sim::Rng rng(request * 1000003 + p);
    // Geometric-Brownian-ish terminal price over 8 steps.
    double s = 100.0;
    for (int step = 0; step < 8; ++step)
      s *= std::exp(0.01 * rng.normal() - 0.00005);
    acc += std::max(0.0, s - 100.0);  // call payoff at strike 100
  }
  return acc;
}

struct RunOutcome {
  double max_flow_ms = 0.0;
  double mean_flow_ms = 0.0;
  double p99_flow_ms = 0.0;
  std::uint64_t steals = 0;
  std::uint64_t admissions = 0;
  double total_priced = 0.0;  // consumed so the kernel cannot be elided
};

RunOutcome run_policy(unsigned steal_k, std::size_t requests,
                      std::size_t paths) {
  runtime::PoolOptions opts;
  opts.workers = std::max(2u, std::thread::hardware_concurrency());
  opts.steal_k = steal_k;
  opts.seed = 7;
  runtime::ThreadPool pool(opts);

  workload::PoissonArrivals arrivals(/*qps=*/200.0, sim::Rng(99));
  std::atomic<double> sink{0.0};
  const auto add_to_sink = [&sink](double v) {
    double cur = sink.load(std::memory_order_relaxed);
    while (!sink.compare_exchange_weak(cur, cur + v,
                                       std::memory_order_relaxed)) {
    }
  };

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < requests; ++r) {
    const double at_ms = arrivals.next_ms();
    std::this_thread::sleep_until(
        start + std::chrono::microseconds(static_cast<long>(at_ms * 1000)));
    pool.submit([r, paths, &add_to_sink](runtime::TaskContext& ctx) {
      // Fork the paths into ~16 chunks and join before replying.
      runtime::WaitGroup wg;
      const std::size_t grain = paths / 16 + 1;
      for (std::size_t lo = 0; lo < paths; lo += grain) {
        const std::size_t hi = std::min(paths, lo + grain);
        ctx.spawn([r, lo, hi, &add_to_sink](
                      runtime::TaskContext&) { add_to_sink(price_chunk(r, lo, hi)); },
                  wg);
      }
      ctx.wait_help(wg);
    });
  }
  pool.wait_all();

  const auto summary = pool.recorder().summary();
  RunOutcome out;
  out.max_flow_ms = summary.max * 1000.0;
  out.mean_flow_ms = summary.mean * 1000.0;
  out.p99_flow_ms = summary.p99 * 1000.0;
  out.steals = pool.stats().successful_steals;
  out.admissions = pool.stats().admissions;
  out.total_priced = sink.load();
  pool.shutdown();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pjsched;
  std::size_t requests = 60;
  std::size_t paths = 20000;
  try {
    if (argc > 1) requests = core::parse_unsigned<std::size_t>(argv[1]);
    if (argc > 2) paths = core::parse_unsigned<std::size_t>(argv[2]);
    if (argc > 3 || requests == 0 || paths == 0)
      throw std::invalid_argument("counts must be >= 1");
  } catch (const std::invalid_argument&) {
    std::cerr << "usage: " << argv[0]
              << " [requests] [paths_per_request]  (each >= 1)\n";
    return 2;
  }

  std::cout << "Option-pricing server on the threaded work-stealing "
               "runtime: "
            << requests << " requests at 200 QPS, " << paths
            << " Monte-Carlo paths each, "
            << std::max(2u, std::thread::hardware_concurrency())
            << " workers\n\n";

  metrics::Table table({"policy", "max_flow_ms", "mean_flow_ms",
                        "p99_flow_ms", "steals", "admissions"});
  double checksum = 0.0;
  for (unsigned k : {0u, 16u}) {
    const auto out = run_policy(k, requests, paths);
    checksum += out.total_priced;
    table.add_row({k == 0 ? "admit-first" : "steal-16-first",
                   metrics::Table::cell(out.max_flow_ms),
                   metrics::Table::cell(out.mean_flow_ms),
                   metrics::Table::cell(out.p99_flow_ms),
                   metrics::Table::cell(out.steals),
                   metrics::Table::cell(out.admissions)});
  }
  table.print(std::cout);
  std::cout << "\n(mean priced value per path-batch: "
            << checksum / (2.0 * static_cast<double>(requests))
            << "; flow times are wall-clock — on a multicore host the "
               "ordering tracks the paper's Figure 2(b).)\n";
  return 0;
}
