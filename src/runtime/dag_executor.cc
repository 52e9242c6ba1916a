#include "src/runtime/dag_executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <new>
#include <stdexcept>

#include "src/runtime/interference.h"

namespace pjsched::runtime {

void spin_for_units(dag::Work units, double ns_per_unit) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::nanoseconds(
          static_cast<std::int64_t>(static_cast<double>(units) * ns_per_unit));
  while (std::chrono::steady_clock::now() < deadline) {
    // Keep the core busy; prevent the loop from being optimized away.
    std::atomic_signal_fence(std::memory_order_seq_cst);
  }
}

namespace {

constexpr std::size_t round_up(std::size_t bytes, std::size_t to) {
  return (bytes + to - 1) / to * to;
}

// Byte offsets, from the start of a DAG's block, of the arrays that follow
// the DagRun header, and the block's size.
struct BlockLayout {
  explicit BlockLayout(const dag::Dag& graph);
  std::size_t work, succ_off, succ, sources, pending, bytes;
};

// One DAG job's execution state, in one allocation aligned to a cache line:
//
//   DagRun | work[n] | succ_off[n + 1] | succ[edges] | sources[s] | pad |
//   pending[n] | pad to a line boundary
//
// The header and the arrays up to `sources` are written by the
// constructor and then only read, with one exception: a finishing node
// compacts its newly ready successors to the front of its own `succ`
// slice (run_node).  It writes a slot only where a ready successor follows
// one that is not ready yet, which parallel-for, fork-join, chain and star
// shapes never produce.  The dependence counters, which every node task
// writes, start on a fresh cache line and the block ends on a line
// boundary, so a counter write never invalidates a line that holds the
// read-mostly part.  Node tasks point at the run by raw pointer: the block
// is owned by the job's SubmitOptions::on_finish, which the pool destroys
// only after the job's last task has exited.
struct DagRun {
  static constexpr std::align_val_t kAlign{kDestructiveInterference};

  struct Deleter {
    void operator()(DagRun* run) const noexcept {
      run->~DagRun();
      ::operator delete(run, kAlign);
    }
  };
  using Ptr = std::unique_ptr<DagRun, Deleter>;

  static Ptr make(const dag::Dag& graph, NodeBody body) {
    const BlockLayout at(graph);
    return Ptr(new (::operator new(at.bytes, kAlign))
                   DagRun(graph, std::move(body), at));
  }

  DagRun(const DagRun&) = delete;
  DagRun& operator=(const DagRun&) = delete;

  NodeBody body;
  const dag::Work* const work;          // per node
  const std::uint32_t* const succ_off;  // successors of v: succ[succ_off[v]
  dag::NodeId* const succ;              //                   .. succ_off[v + 1])
  const dag::NodeId* const sources;
  const std::uint32_t source_count;
  std::atomic<std::uint32_t>* const pending;  // per node: unmet predecessors

 private:
  DagRun(const dag::Dag& graph, NodeBody b, const BlockLayout& at) noexcept;

  template <typename T>
  T* array_at(std::size_t offset) {
    return reinterpret_cast<T*>(reinterpret_cast<std::byte*>(this) + offset);
  }
};

BlockLayout::BlockLayout(const dag::Dag& graph) {
  const std::size_t n = graph.node_count();
  work = round_up(sizeof(DagRun), alignof(dag::Work));
  succ_off = work + n * sizeof(dag::Work);
  succ = succ_off + (n + 1) * sizeof(std::uint32_t);
  sources = succ + graph.edge_count() * sizeof(dag::NodeId);
  pending = round_up(sources + graph.sources().size() * sizeof(dag::NodeId),
                     kDestructiveInterference);
  bytes = round_up(pending + n * sizeof(std::atomic<std::uint32_t>),
                   kDestructiveInterference);
}

DagRun::DagRun(const dag::Dag& graph, NodeBody b,
               const BlockLayout& at) noexcept
    : body(std::move(b)),
      work(array_at<dag::Work>(at.work)),
      succ_off(array_at<std::uint32_t>(at.succ_off)),
      succ(array_at<dag::NodeId>(at.succ)),
      sources(array_at<dag::NodeId>(at.sources)),
      source_count(static_cast<std::uint32_t>(graph.sources().size())),
      pending(array_at<std::atomic<std::uint32_t>>(at.pending)) {
  auto* const work_out = array_at<dag::Work>(at.work);
  auto* const off_out = array_at<std::uint32_t>(at.succ_off);
  auto* const succ_out = array_at<dag::NodeId>(at.succ);
  std::uint32_t edges = 0;
  for (dag::NodeId v = 0; v < graph.node_count(); ++v) {
    work_out[v] = graph.work_of(v);
    off_out[v] = edges;
    for (dag::NodeId w : graph.successors(v)) succ_out[edges++] = w;
    // Constructed, not stored: the block reaches the workers through
    // submit()'s admission queue, which orders these writes.
    new (&pending[v]) std::atomic<std::uint32_t>(
        static_cast<std::uint32_t>(graph.in_degree(v)));
  }
  off_out[graph.node_count()] = edges;
  std::copy(graph.sources().begin(), graph.sources().end(),
            array_at<dag::NodeId>(at.sources));
}

void run_ready(TaskContext& ctx, DagRun* run, const dag::NodeId* ids,
               std::uint32_t n);

void spawn_ready(TaskContext& ctx, DagRun* run, const dag::NodeId* ids,
                 std::uint32_t n) {
  ctx.spawn(
      [run, ids, n](TaskContext& inner) { run_ready(inner, run, ids, n); });
}

void run_node(TaskContext& ctx, DagRun* run, dag::NodeId v) {
  // Cooperative cancellation needs no check here: the pool skips every task
  // of a cancelled job (failure or deadline) before its body runs, so the
  // remaining nodes never execute and never resolve successors.
  run->body(v, run->work[v]);
  // Compact the successors that became ready to the front of v's own
  // slice.  No other node's task touches it, and each entry is read before
  // any write can reach it; the ready list's tasks read only the prefix.
  const std::uint32_t begin = run->succ_off[v];
  const std::uint32_t end = run->succ_off[v + 1];
  dag::NodeId* const ready = run->succ + begin;
  std::uint32_t r = 0;
  for (std::uint32_t i = begin; i < end; ++i) {
    const dag::NodeId w = run->succ[i];
    // order: acq_rel — release publishes this node's effects to the
    // successor's spawner; acquire makes the last-resolving predecessor
    // see every other predecessor's effects before the successor runs.
    if (run->pending[w].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      if (r != i - begin) ready[r] = w;
      ++r;
    }
  }
  if (r > 0) spawn_ready(ctx, run, ready, r);
}

// Runs ids[0] after handing ids[1..n) back to the pool in two halves, the
// far one first.  The oldest entry on a deque is the one a thief takes, so
// one steal moves half of the remaining ready siblings, as a steal of TBB's
// recursively split parallel_for range does.
void run_ready(TaskContext& ctx, DagRun* run, const dag::NodeId* ids,
               std::uint32_t n) {
  const std::uint32_t mid = 1 + (n - 1) / 2;
  if (mid < n) spawn_ready(ctx, run, ids + mid, n - mid);
  if (mid > 1) spawn_ready(ctx, run, ids + 1, mid - 1);
  run_node(ctx, run, ids[0]);
}

}  // namespace

JobHandle submit_dag(ThreadPool& pool, const dag::Dag& graph, NodeBody body,
                     SubmitOptions options) {
  if (!graph.sealed())
    throw std::invalid_argument("submit_dag: DAG must be sealed");
  if (options.on_finish)
    throw std::invalid_argument(
        "submit_dag: options.on_finish must be empty; it owns the block");
  DagRun::Ptr block = DagRun::make(graph, std::move(body));
  DagRun* const run = block.get();
  // The hook's capture owns the block, so the pool frees it with the hook.
  options.on_finish = [block = std::move(block)](const Job&) {};
  return pool.submit(
      [run](TaskContext& ctx) {
        // Hand the sources out as one ready list; this task is the job root.
        spawn_ready(ctx, run, run->sources, run->source_count);
      },
      std::move(options));
}

JobHandle submit_dag(ThreadPool& pool, const dag::Dag& graph, NodeBody body,
                     double weight) {
  SubmitOptions options;
  options.weight = weight;
  return submit_dag(pool, graph, std::move(body), std::move(options));
}

JobHandle submit_dag_spinning(ThreadPool& pool, const dag::Dag& graph,
                              double ns_per_unit, double weight) {
  return submit_dag(
      pool, graph,
      [ns_per_unit](dag::NodeId, dag::Work units) {
        spin_for_units(units, ns_per_unit);
      },
      weight);
}

}  // namespace pjsched::runtime
