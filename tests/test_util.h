// Shared helpers for the pjsched test suite.
#pragma once

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/core/job_source.h"
#include "src/core/types.h"
#include "src/dag/builders.h"
#include "src/dag/dag.h"
#include "src/metrics/streaming_stats.h"
#include "src/sched/scheduler.h"
#include "src/sim/step_engine.h"

namespace pjsched::testutil {

/// Builds an instance from (arrival, dag) pairs, all weight 1.
inline core::Instance make_instance(
    std::vector<std::pair<core::Time, dag::Dag>> jobs) {
  core::Instance inst;
  for (auto& [arrival, graph] : jobs) {
    core::JobSpec spec;
    spec.arrival = arrival;
    spec.graph = std::move(graph);
    inst.jobs.push_back(std::move(spec));
  }
  return inst;
}

/// Builds a weighted instance from (arrival, weight, dag) tuples.
inline core::Instance make_weighted_instance(
    std::vector<std::tuple<core::Time, double, dag::Dag>> jobs) {
  core::Instance inst;
  for (auto& [arrival, weight, graph] : jobs) {
    core::JobSpec spec;
    spec.arrival = arrival;
    spec.weight = weight;
    spec.graph = std::move(graph);
    inst.jobs.push_back(std::move(spec));
  }
  return inst;
}

/// A random multi-job instance for property tests: jobs with random layered
/// DAGs and uniformly spread arrivals.  Deterministic in `seed`.
inline core::Instance random_instance(std::uint64_t seed, std::size_t num_jobs,
                                      core::Time arrival_span) {
  sim::Rng rng(seed);
  core::Instance inst;
  for (std::size_t i = 0; i < num_jobs; ++i) {
    dag::RandomLayeredOptions opt;
    opt.layers = 1 + static_cast<std::size_t>(rng.uniform_int(4));
    opt.min_width = 1;
    opt.max_width = 4;
    opt.min_work = 1;
    opt.max_work = 6;
    opt.edge_probability = 0.5;
    core::JobSpec spec;
    spec.arrival = arrival_span * rng.uniform_double();
    spec.graph = dag::random_layered(rng, opt);
    inst.jobs.push_back(std::move(spec));
  }
  return inst;
}

/// The name `scheduler` reports: the scheduler_name of a one-job run.
inline std::string run_name(sched::Scheduler& scheduler) {
  return scheduler.run(make_instance({{0.0, dag::single_node(1)}}), {1, 1.0})
      .scheduler_name;
}

/// Runs the step engine over a materialized instance the way
/// sched::Scheduler::run(Instance) runs its engine: validates the instance,
/// streams it through an InstanceSource, and records into stats that keep
/// every sample and the per-job vectors.  For tests that need
/// StepEngineOptions knobs no Scheduler exposes (exact_steps, max_steps).
inline core::StreamRunResult run_step_engine_on(
    const core::Instance& inst, const sim::StepEngineOptions& opt) {
  inst.validate();
  core::InstanceSource source(inst);
  metrics::StreamingFlowStats stats(metrics::StreamingFlowStats::Options{
      .reservoir = inst.size(), .per_job = inst.size()});
  return sim::run_step_engine(source, opt, &stats);
}

}  // namespace pjsched::testutil
