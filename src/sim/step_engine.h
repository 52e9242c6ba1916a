// Synchronous step-level simulation of the paper's multiprogrammed
// work-stealing machine (Section 4).
//
// The machine has m workers of speed s.  Time advances in *steps* of length
// 1/s (one step = the time an s-speed processor needs for one unit of work).
// In each step every worker either
//   (a) executes one unit of work of its current node,
//   (b) pops a node from the bottom of its own deque (a free local
//       operation) and executes one unit of it,
//   (c) admits the job at the head of the global FIFO queue (free, modelling
//       the paper's accounting where only steals cost steps) and executes
//       one unit of its first ready node, or
//   (d) spends the whole step on one steal attempt at a uniformly random
//       other worker, taking the *top* node of the victim's deque on
//       success.
// The steal-k-first policy gates (c): a worker may admit only after k
// consecutive failed steal attempts (k = 0 — "admit-first" — admits whenever
// the global queue is non-empty).  When a node completes and enables
// successors, the worker continues with one of them and pushes the rest on
// the *bottom* of its deque; an admitted job's ready sources are treated the
// same way.  Jobs enter the global FIFO queue at (the first step boundary
// at or after) their arrival time.
//
// Within one step, workers act in a uniformly random permutation; a steal
// succeeds if the victim's deque is non-empty at the moment the thief acts.
// All randomness comes from the seed in StepEngineOptions.
//
// The permutation is only *drawn* on steps where it is observable: some
// live worker is idle (it will pop/admit/steal, racing the others for
// shared state) or some live worker finishes its node this step (enabled
// successors are claimed in permutation order).  On an all-busy step with
// every remaining counter >= 2, each worker just decrements its own
// counter, so the shuffle is skipped — and, by default, whole runs of such
// steps are advanced in one macro-step (the work-quantum fast path, see
// docs/simulation-model.md "Performance model").  Setting `exact_steps`
// keeps the per-step loop for every step; both modes draw the same RNG
// stream and produce bit-identical results.
// Memory model: the engine pulls jobs from a core::JobSource and keeps
// per-job state (tracker, DAG) in a recycling slot arena (sim::JobArena);
// deque and queue entries reference slots, and a job's slot — including its
// DAG storage — is freed when its last node completes.  Resident state is
// O(live jobs), independent of the instance length (see
// docs/simulation-model.md, "Scaling to 10^6+ jobs").  run_step_engine is
// the one entry point: a materialized Instance runs through it as a
// core::InstanceSource, so materialized and streamed runs of the same jobs
// draw the same RNG stream and are bit-identical.
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/job_source.h"
#include "src/core/types.h"
#include "src/sim/rng.h"
#include "src/sim/trace.h"

namespace pjsched::metrics {
class StreamingFlowStats;
}  // namespace pjsched::metrics

namespace pjsched::sim {

struct StepEngineOptions {
  /// Machine to simulate.  `machine.degradation` events model fail-stop
  /// worker failure and recovery: at each event the live worker set becomes
  /// workers [0, processors) (lowest indices survive — deterministic).  A
  /// failing worker loses the progress on its in-flight node, which is
  /// returned to the front of its deque and restarts from scratch when a
  /// live worker steals it; its deque stays stealable (fail-stop with work
  /// recovery through stealing).  Speed changes are not supported — the
  /// step length is 1/s for the configured speed — and throw
  /// std::invalid_argument.
  core::MachineConfig machine;
  /// Number of consecutive failed steal attempts a worker needs before it
  /// may admit from the global queue.  0 = admit-first.
  unsigned steal_k = 0;
  /// Extension (not in the paper): admit the *heaviest* queued job instead
  /// of the oldest — a BWF-flavoured admission order for the weighted
  /// objective.  FIFO admission when false (the paper's scheduler).
  bool admit_by_weight = false;
  /// Extension: on a successful steal, take *half* of the victim's deque
  /// (rounded up, oldest half) instead of one node — the steal-half
  /// variant common in runtime systems.  The stolen batch's first node
  /// becomes the thief's current node; the rest land in its own deque.
  bool steal_half = false;
  std::uint64_t seed = 1;
  Trace* trace = nullptr;
  /// Reference mode: simulate every step individually instead of batching
  /// runs of all-busy steps into macro-steps.  Results are bit-identical
  /// either way (the cross-check tests rely on this); exact mode exists for
  /// that cross-check and for step-level debugging.
  bool exact_steps = false;
  /// Defensive cap on simulated steps (0 = automatic: generous bound from
  /// total work, arrival span, and job count).
  std::uint64_t max_steps = 0;
};

/// Runs `source` to exhaustion under steal-k-first work stealing,
/// recording each completion into `stats` (a local StreamingFlowStats when
/// null) and, when `completion` is non-null, into (*completion)[id] after
/// resizing it to source.size() (an id outside that range throws
/// std::out_of_range).  The result carries the steal/admission counters and
/// is built from those statistics; see StreamRunResult for the exactness
/// contract of its fields.  The automatic step budget (max_steps == 0)
/// grows with the jobs acquired so far, ending at the whole-instance
/// formula.
core::StreamRunResult run_step_engine(
    core::JobSource& source, const StepEngineOptions& options,
    metrics::StreamingFlowStats* stats = nullptr,
    std::vector<core::Time>* completion = nullptr);

}  // namespace pjsched::sim
