// Supporting experiment: how tight are the lower bounds this library (and
// the paper's Section 6) divide by?
//
// On many tiny unit-work instances where exact OPT is computable by
// exhaustive search, measure  OPT / bound  for each bound and
// scheduler / OPT  for each scheduler.  Takeaway: the OPT-sim bound is
// within a small factor of true OPT on parallel-friendly instances, so the
// Figure-2 "ratio to OPT" columns only mildly overstate the true
// competitive ratios.
#include <iostream>

#include "src/core/bounds.h"
#include "src/core/run.h"
#include "src/dag/builders.h"
#include "src/metrics/stats.h"
#include "src/metrics/table.h"
#include "src/sched/exact_opt.h"

int main() {
  using namespace pjsched;

  constexpr int kInstances = 200;
  std::vector<double> opt_over_sim, opt_over_span, fifo_over_opt,
      ws_over_opt;
  std::uint64_t total_states = 0;

  for (int trial = 0; trial < kInstances; ++trial) {
    sim::Rng rng(trial * 7 + 3);
    core::Instance inst;
    const int jobs = 2 + static_cast<int>(rng.uniform_int(3));
    for (int j = 0; j < jobs; ++j) {
      dag::RandomLayeredOptions opt;
      opt.layers = 1 + static_cast<std::size_t>(rng.uniform_int(3));
      opt.min_width = 1;
      opt.max_width = 2;
      opt.min_work = 1;
      opt.max_work = 1;
      opt.edge_probability = 0.5;
      core::JobSpec spec;
      spec.arrival = static_cast<double>(rng.uniform_int(5));
      spec.graph = dag::random_layered(rng, opt);
      inst.jobs.push_back(std::move(spec));
    }
    const unsigned m = 1 + static_cast<unsigned>(rng.uniform_int(3));

    const auto exact = sched::exact_optimal_max_flow(inst, m);
    total_states += exact.states_explored;
    const double opt = exact.max_flow;

    opt_over_sim.push_back(opt / core::lower_bounds(inst, m).opt_sim);
    opt_over_span.push_back(
        opt / std::max(1.0, core::lower_bounds(inst, 1).span));

    auto fifo = core::parse_scheduler("fifo");
    fifo_over_opt.push_back(
        core::run_scheduler(inst, fifo, {m, 1.0}).max_flow / opt);
    auto ws = core::parse_scheduler("admit-first");
    ws.seed = trial + 1;
    ws_over_opt.push_back(
        core::run_scheduler(inst, ws, {m, 1.0}).max_flow / opt);
  }

  std::cout << "# Bound tightness on " << kInstances
            << " tiny unit-work instances (exact OPT by exhaustive "
               "search; "
            << total_states << " states total)\n";
  metrics::Table table({"ratio", "mean", "p90", "max"});
  const auto add = [&](const char* name, std::vector<double> v) {
    const auto s = metrics::summarize(v);
    table.add_row({name, metrics::Table::cell(s.mean),
                   metrics::Table::cell(s.p90), metrics::Table::cell(s.max)});
  };
  add("OPT / opt-sim-bound", opt_over_sim);
  add("OPT / span-bound", opt_over_span);
  add("FIFO / OPT", fifo_over_opt);
  add("admit-first / OPT", ws_over_opt);
  table.print(std::cout);
  return 0;
}
