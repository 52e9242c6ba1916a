// Executes a dag::Dag job on the real threaded runtime: the bridge between
// the simulator's job model and the thread pool, mirroring how the paper's
// TBB implementation executes the same benchmark jobs the simulated OPT is
// computed on.
//
// submit_dag packs the sealed DAG into one flat execution block per job:
// node work, the successor CSR, the sources, per-node dependence counters
// and the NodeBody, in a single allocation.  The job's
// SubmitOptions::on_finish owns the block, so the pool frees it exactly
// once, after the job's last task has exited, whatever the job's outcome.
// Each DAG node runs in one task, which carries only a raw pointer to the
// block and a list of ready node ids.  When a node finishes it resolves its
// successors' dependence counters and spawns one task over those that
// became ready: the dynamic unfolding of Section 2, realized with atomics
// instead of the simulator's PackedDag frontier.  A task over a list spawns
// each half of the list's tail as a task of its own, the far half first,
// and runs the list's first node, so one steal takes half of a job's ready
// siblings, as in TBB's recursively split parallel_for.
#pragma once

#include <cstdint>
#include <functional>

#include "src/dag/dag.h"
#include "src/runtime/thread_pool.h"

namespace pjsched::runtime {

/// Called once per node when it executes; receives the node id and its
/// processing time in work units.  The default body (see spin_for_units)
/// spins for a wall time proportional to the work.
// lint: allow(std-function): one body per DAG *job*, stored once in the
// job's execution block and called through it by every node task; no task
// copies it.  Copyable because callers may hand one lvalue body to many
// submissions, which the move-only InlineFn would forbid.
using NodeBody = std::function<void(dag::NodeId, dag::Work)>;

/// Busy-spins until roughly `units * ns_per_unit` nanoseconds of
/// steady_clock (wall) time have passed: the CPU-bound stand-in for real
/// node work.  Time the thread spends descheduled counts toward it.
void spin_for_units(dag::Work units, double ns_per_unit);

/// Submits `graph` as one job with `options` (weight, deadline).  The job's
/// execution block holds everything the run reads from the DAG, so
/// `graph` may be destroyed as soon as this returns.  `options.on_finish`
/// must be empty: the block's owner takes that slot.  Returns the pool's
/// job handle (flow time lands in the pool's recorder).
JobHandle submit_dag(ThreadPool& pool, const dag::Dag& graph, NodeBody body,
                     SubmitOptions options);
JobHandle submit_dag(ThreadPool& pool, const dag::Dag& graph, NodeBody body,
                     double weight = 1.0);

/// Convenience: submit with a spinning body of `ns_per_unit` per work unit.
JobHandle submit_dag_spinning(ThreadPool& pool, const dag::Dag& graph,
                              double ns_per_unit, double weight = 1.0);

}  // namespace pjsched::runtime
