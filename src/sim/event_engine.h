// Centralized, preemptive, event-driven m-processor simulation.
//
// This engine models the paper's *idealized* centralized schedulers (FIFO,
// Section 3; BWF, Section 7; plus baselines): at every decision point the
// scheduler orders the active jobs by its policy and greedily hands each
// job's available nodes to unique processors until processors or nodes run
// out.  Reallocation (including preemption of partially executed nodes, at
// zero cost) happens at every event — job arrival, node completion, or
// machine event — which is exactly the set of instants at which such an
// allocation can change, so the event-driven simulation is exact, not a
// discretization.
//
// Processors run at speed `s`: an assigned node's remaining work decreases
// at rate s per unit time.
//
// The engine has two execution paths producing bit-identical results (see
// docs/simulation-model.md, "Performance model"):
//
//  * The *reference* path (EventEngineOptions::exact) re-derives everything
//    at every decision point: it rebuilds the active list, asks the policy
//    to order it, and scans every assigned node for the next completion —
//    O(active log active + assigned) per event.
//  * The *fast* path (the default, taken whenever the policy declares a
//    static order) maintains a virtual work clock W = ∫ s dt and keys each
//    continuously assigned node by its absolute completion coordinate
//    W₀ + remaining in a min-heap, so the next completion is O(log) and
//    per-slice remaining-work decrements disappear; the active list is
//    maintained incrementally in policy order, and traces are emitted as
//    coalesced spans instead of one interval per slice.  Remaining work is
//    only materialized when a node is preempted or completes.
//
// Both paths share the same floating-point formulas and materialization
// points, so completions, stats, and coalesced traces agree bitwise;
// tests/event_fast_path_test.cc cross-checks them.
//
// Memory model: both paths pull jobs from a core::JobSource and keep per-job
// state in a recycling slot arena (sim::JobArena) — a job occupies a slot
// only between arrival and completion, and its DAG storage is freed when
// its last node finishes.  Resident state is O(live jobs + heap entries),
// independent of the instance length, which is what lets streamed 10^6-job
// runs fit in memory (see docs/simulation-model.md, "Scaling to 10^6+
// jobs").  run_event_engine is the one entry point: a materialized
// Instance runs through it as a core::InstanceSource (borrowing the DAGs),
// and each finished job is reported once, to metrics::StreamingFlowStats,
// whose per-id capture is what gives sched::Scheduler::run(Instance) its
// per-job vectors.
//
// Thread safety: each run keeps all simulation state on the stack of the
// calling thread and only reads the (immutable, sealed) source DAGs, so
// concurrent calls on distinct policy objects and sources are safe.  The
// OrderPolicy is mutated (order() may keep state) and must not be shared
// across concurrent runs; a JobSource is consumed by its run and must not
// be shared at all.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/core/job_source.h"
#include "src/core/types.h"
#include "src/sim/trace.h"

namespace pjsched::metrics {
class StreamingFlowStats;
}  // namespace pjsched::metrics

namespace pjsched::sim {

/// Read-only view the ordering policy gets at each decision point.  Job
/// lookups are valid for *live* jobs — the jobs the engine passes to the
/// policy — and throw std::logic_error otherwise (a policy holding ids of
/// completed jobs is a bug, not a silent stale read).
class PolicyContext {
 public:
  virtual ~PolicyContext() = default;
  virtual core::Time now() const = 0;
  virtual core::Time arrival(core::JobId j) const = 0;
  virtual double weight(core::JobId j) const = 0;
  /// Remaining unprocessed work of job j, in work units.  Only clairvoyant
  /// policies (e.g. shortest-job-first baselines) may use this.
  virtual double remaining_work(core::JobId j) const = 0;
};

/// Orders active jobs, highest priority first.  Implementations must be
/// deterministic given their own state; they may keep state across calls
/// (e.g. round robin) since the engine invokes order() exactly once per
/// decision point in simulated-time order.
class OrderPolicy {
 public:
  virtual ~OrderPolicy() = default;
  virtual std::string name() const = 0;
  virtual void order(const PolicyContext& ctx,
                     std::vector<core::JobId>& active) = 0;

  /// Static-order hint.  Return true if the policy's priority order is
  /// *time-invariant* — a fixed strict weak ordering over jobs, as for FIFO
  /// (by arrival), BWF (by weight), and the arrival-ordered baselines.  The
  /// engine then calls static_key() once per job at admission, maintains
  /// the active list incrementally in ascending-key order (ties broken by
  /// admission order, i.e. the (arrival, index) base order), and skips the
  /// per-slice re-sort; order() is never called.  Return false (the
  /// default) for dynamic policies — they keep the exact per-slice path.
  virtual bool has_static_order() const { return false; }

  /// The time-invariant priority key of `job` (lower = higher priority).
  /// Called exactly once per job, at its admission, so a streamed run never
  /// materializes a whole-instance key vector.  Must satisfy: a stable sort
  /// of any active set by this key over the admission base order reproduces
  /// order() exactly.  Only consulted when has_static_order() is true; a
  /// policy declaring a static order must not consult
  /// PolicyContext::remaining_work() here or in order() (its order would
  /// not be time-invariant).  processor_cap() is still consulted at every
  /// decision point either way.
  virtual double static_key(const PolicyContext& ctx, core::JobId job) {
    (void)ctx;
    (void)job;
    return 0.0;
  }

  /// Maximum processors the engine may hand to `job` at this decision
  /// point (before any leftover redistribution: after every job in
  /// priority order has been offered its cap, remaining processors are
  /// re-offered cap-free in the same order, keeping the machine
  /// work-conserving).  Default: unlimited — the greedy ordered allocation
  /// of FIFO/BWF.  Equipartition-style policies override this.
  virtual unsigned processor_cap(const PolicyContext& ctx, core::JobId job,
                                 unsigned processors,
                                 std::size_t active_jobs) {
    (void)ctx;
    (void)job;
    (void)active_jobs;
    return processors;
  }
};

struct EventEngineOptions {
  /// Machine to simulate.  `machine.degradation` events are honored exactly:
  /// each event is a decision point at which (m, s) change, so processor
  /// loss/restore and slowdown/recovery are simulated without
  /// discretization error.  Speed changes compose with the fast path for
  /// free: completion coordinates live on the work axis, which is
  /// speed-independent.
  core::MachineConfig machine;
  /// If non-null, the engine records per-slice work intervals into *trace
  /// (coalesced at the end).  Traces are O(all jobs) — leave null for
  /// memory-bounded streamed runs.
  Trace* trace = nullptr;
  /// Reference mode: re-derive the active list, policy order, and next
  /// completion from scratch at every decision point instead of taking the
  /// incremental virtual-work-clock path.  Results are bit-identical either
  /// way (the cross-check tests rely on this); exact mode exists for that
  /// cross-check and for decision-level debugging, mirroring
  /// StepEngineOptions::exact_steps.
  bool exact = false;
};

/// Runs `source` to exhaustion under the given policy, recording each
/// completion into `stats` (a local StreamingFlowStats when null).  The
/// result is built from those statistics; its extremes (max flow, max
/// weighted flow, argmax, makespan) are exact — see StreamRunResult for the
/// remaining fields.  Throws std::invalid_argument on invalid jobs
/// (unsealed DAG, negative arrival, non-positive weight, out-of-order
/// arrivals) or options.
core::StreamRunResult run_event_engine(
    core::JobSource& source, OrderPolicy& policy,
    const EventEngineOptions& options,
    metrics::StreamingFlowStats* stats = nullptr);

}  // namespace pjsched::sim
