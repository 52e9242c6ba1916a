#include "src/dag/builders.h"

#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

namespace pjsched::dag {

Dag serial_chain(std::size_t length, Work work_per_node) {
  if (length == 0) throw std::invalid_argument("serial_chain: length == 0");
  // Node i's one successor is i + 1; the last node has none.
  std::vector<std::uint32_t> succ_off(length + 1);
  std::iota(succ_off.begin(), succ_off.end() - 1, 0u);
  succ_off[length] = succ_off[length - 1];
  std::vector<NodeId> succ(length - 1);
  std::iota(succ.begin(), succ.end(), NodeId{1});
  return Dag(std::vector<Work>(length, work_per_node), std::move(succ_off),
             std::move(succ));
}

Dag single_node(Work work) { return Dag({work}, {0, 0}, {}); }

Dag parallel_for_dag(std::size_t grains, Work body_work, Work root_work,
                     Work join_work) {
  if (grains == 0) throw std::invalid_argument("parallel_for_dag: grains == 0");
  return parallel_for_dag_fn(
      grains, [body_work](std::size_t) { return body_work; }, root_work,
      join_work);
}

namespace {
// Recursively emits the fork tree: a fork node splits into two subtrees whose
// leaves carry the work, mirrored by a join tree below.
// Returns {entry, exit} node ids of the emitted subgraph.
std::pair<NodeId, NodeId> emit_dc(Dag& d, std::size_t depth, Work leaf_work) {
  if (depth == 0) {
    const NodeId leaf = d.add_node(leaf_work);
    return {leaf, leaf};
  }
  const NodeId fork = d.add_node(1);
  const NodeId join = d.add_node(1);
  for (int child = 0; child < 2; ++child) {
    const auto [entry, exit] = emit_dc(d, depth - 1, leaf_work);
    d.add_edge(fork, entry);
    d.add_edge(exit, join);
  }
  return {fork, join};
}
}  // namespace

Dag divide_and_conquer(std::size_t depth, Work leaf_work) {
  Dag d;
  emit_dc(d, depth, leaf_work);
  d.seal();
  return d;
}

Dag star(std::size_t children) {
  if (children == 0) throw std::invalid_argument("star: children == 0");
  // The root's slice lists every leaf; the leaves' slices are empty.
  std::vector<std::uint32_t> succ_off(children + 2,
                                      static_cast<std::uint32_t>(children));
  succ_off[0] = 0;
  std::vector<NodeId> succ(children);
  std::iota(succ.begin(), succ.end(), NodeId{1});
  return Dag(std::vector<Work>(children + 1, 1), std::move(succ_off),
             std::move(succ));
}

namespace {
// Emits a random series-parallel subprogram; returns {entry, exit}.
std::pair<NodeId, NodeId> emit_random_fj(Dag& d, sim::Rng& rng,
                                         const RandomForkJoinOptions& opt,
                                         std::size_t depth) {
  const Work w = static_cast<Work>(rng.uniform_range(
      static_cast<std::int64_t>(opt.min_work),
      static_cast<std::int64_t>(opt.max_work)));
  if (depth >= opt.max_depth || !rng.bernoulli(opt.fork_probability)) {
    const NodeId leaf = d.add_node(w);
    return {leaf, leaf};
  }
  const NodeId fork = d.add_node(1);
  const NodeId join = d.add_node(1);
  const auto fanout = static_cast<std::size_t>(rng.uniform_range(
      static_cast<std::int64_t>(opt.min_fanout),
      static_cast<std::int64_t>(opt.max_fanout)));
  for (std::size_t c = 0; c < fanout; ++c) {
    const auto [entry, exit] = emit_random_fj(d, rng, opt, depth + 1);
    d.add_edge(fork, entry);
    d.add_edge(exit, join);
  }
  return {fork, join};
}
}  // namespace

Dag random_fork_join(sim::Rng& rng, const RandomForkJoinOptions& opt) {
  if (opt.max_depth == 0)
    throw std::invalid_argument("random_fork_join: max_depth == 0");
  if (opt.min_fanout < 1 || opt.min_fanout > opt.max_fanout)
    throw std::invalid_argument("random_fork_join: bad fanout range");
  if (opt.min_work == 0 || opt.min_work > opt.max_work)
    throw std::invalid_argument("random_fork_join: bad work range");
  if (opt.fork_probability < 0.0 || opt.fork_probability > 1.0)
    throw std::invalid_argument("random_fork_join: bad fork probability");
  Dag d;
  emit_random_fj(d, rng, opt, 0);
  d.seal();
  return d;
}

Dag random_layered(sim::Rng& rng, const RandomLayeredOptions& opt) {
  if (opt.layers == 0)
    throw std::invalid_argument("random_layered: layers == 0");
  if (opt.min_width == 0 || opt.min_width > opt.max_width)
    throw std::invalid_argument("random_layered: bad width range");
  if (opt.min_work == 0 || opt.min_work > opt.max_work)
    throw std::invalid_argument("random_layered: bad work range");
  if (opt.edge_probability < 0.0 || opt.edge_probability > 1.0)
    throw std::invalid_argument("random_layered: bad edge probability");

  Dag d;
  std::vector<NodeId> prev_layer;
  for (std::size_t layer = 0; layer < opt.layers; ++layer) {
    const std::size_t width = static_cast<std::size_t>(rng.uniform_range(
        static_cast<std::int64_t>(opt.min_width),
        static_cast<std::int64_t>(opt.max_width)));
    std::vector<NodeId> cur_layer;
    cur_layer.reserve(width);
    for (std::size_t i = 0; i < width; ++i) {
      const Work w = static_cast<Work>(rng.uniform_range(
          static_cast<std::int64_t>(opt.min_work),
          static_cast<std::int64_t>(opt.max_work)));
      cur_layer.push_back(d.add_node(w));
    }
    if (!prev_layer.empty()) {
      for (NodeId v : cur_layer) {
        bool has_pred = false;
        for (NodeId u : prev_layer) {
          if (rng.bernoulli(opt.edge_probability)) {
            d.add_edge(u, v);
            has_pred = true;
          }
        }
        // Guarantee the DAG really is `layers` deep: each non-source node
        // gets at least one predecessor from the previous layer.
        if (!has_pred) {
          const NodeId u =
              prev_layer[rng.uniform_int(prev_layer.size())];
          d.add_edge(u, v);
        }
      }
    }
    prev_layer = std::move(cur_layer);
  }
  d.seal();
  return d;
}

}  // namespace pjsched::dag
