#include "lpa/pipeline.hpp"

#include <map>
#include <span>

namespace mecoff::lpa {

using graph::Adjacency;
using graph::NodeId;
using graph::WeightedGraph;

CompressionStats CompressionPipelineResult::aggregate_stats() const {
  CompressionStats total;
  for (const CompressedComponent& comp : components)
    total += comp.compression.stats;
  return total;
}

CompressionPipelineResult compress_application(
    const WeightedGraph& g, const std::vector<bool>& unoffloadable,
    const PropagationConfig& config, parallel::ThreadPool* pool,
    const std::vector<std::uint32_t>* declared_components) {
  MECOFF_EXPECTS(unoffloadable.size() == g.num_nodes());
  MECOFF_EXPECTS(declared_components == nullptr ||
                 declared_components->size() == g.num_nodes());
  const std::size_t n = g.num_nodes();
  constexpr std::uint32_t kPinned = UINT32_MAX;
  constexpr std::uint32_t kUnseen = UINT32_MAX - 1;

  // Line 1 of Algorithm 1 (remove unoffloadable functions) and lines
  // 2–4 (split into component sub-graphs) in one BFS over the user's
  // adjacency that never enters a pinned node: each search covers one
  // connected component of the offloadable graph, and searches start at
  // ascending ids, so components are numbered by their smallest node.
  std::vector<std::uint32_t> slot(n);
  for (NodeId v = 0; v < n; ++v)
    slot[v] = unoffloadable[v] ? kPinned : kUnseen;
  std::uint32_t count = 0;
  {
    std::vector<NodeId> queue;
    queue.reserve(n);
    for (NodeId start = 0; start < n; ++start) {
      if (slot[start] != kUnseen) continue;
      slot[start] = count;
      queue.assign(1, start);
      for (std::size_t head = 0; head < queue.size(); ++head) {
        for (const Adjacency& adj : g.neighbors(queue[head])) {
          if (slot[adj.neighbor] != kUnseen) continue;
          slot[adj.neighbor] = count;
          queue.push_back(adj.neighbor);
        }
      }
      ++count;
    }
  }
  // Declared software-component boundaries refine the split (two
  // connected nodes of different declared components must not share a
  // sub-graph, so compression can never merge them): one sub-graph per
  // (declared, connectivity) pair, numbered by first appearance.
  if (declared_components != nullptr) {
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t> remap;
    for (NodeId v = 0; v < n; ++v) {
      if (slot[v] == kPinned) continue;
      const auto key = std::make_pair((*declared_components)[v], slot[v]);
      slot[v] = remap.try_emplace(key, static_cast<std::uint32_t>(remap.size()))
                    .first->second;
    }
    count = static_cast<std::uint32_t>(remap.size());
  }

  // Sub-graph s holds layout positions [first[s], first[s + 1]); a
  // node's local id is its rank in ascending original-id order, so
  // slot[v] becomes first[s] + local id.
  CompressionPipelineResult out;
  out.components.resize(count);
  std::vector<std::size_t> first(count + 1, 0);
  for (NodeId v = 0; v < n; ++v)
    if (slot[v] != kPinned) ++first[slot[v] + 1];
  for (std::uint32_t s = 0; s < count; ++s) {
    first[s + 1] += first[s];
    out.components[s].nodes.reserve(first[s + 1] - first[s]);
  }
  for (NodeId v = 0; v < n; ++v) {
    if (slot[v] == kPinned) continue;
    std::vector<NodeId>& nodes = out.components[slot[v]].nodes;
    const std::size_t position = first[slot[v]] + nodes.size();
    nodes.push_back(v);
    slot[v] = static_cast<std::uint32_t>(position);
  }

  // One CSR for the user, sub-graph by sub-graph: each node's neighbours
  // inside its own sub-graph, in local ids. The user's adjacency is
  // ascending and local ids keep that order, so every slice is exactly
  // the induced sub-graph's CSR (`edge` stays the user's EdgeId, which
  // no kernel reads).
  const std::size_t placed = first[count];
  std::vector<double> weights(placed);
  std::vector<std::size_t> offsets(placed + 1);
  std::vector<Adjacency> adjacency;
  adjacency.reserve(2 * g.num_edges());
  for (std::uint32_t s = 0; s < count; ++s) {
    const std::vector<NodeId>& nodes = out.components[s].nodes;
    const std::size_t begin = first[s];
    const std::size_t end = first[s + 1];  // kPinned lies past every end
    for (std::size_t local = 0; local < nodes.size(); ++local) {
      offsets[begin + local] = adjacency.size();
      weights[begin + local] = g.node_weight(nodes[local]);
      for (const Adjacency& adj : g.neighbors(nodes[local])) {
        const std::uint32_t position = slot[adj.neighbor];
        if (position < begin || position >= end) continue;
        adjacency.push_back(Adjacency{static_cast<NodeId>(position - begin),
                                      adj.weight, adj.edge});
      }
    }
  }
  offsets[placed] = adjacency.size();

  const auto process_component = [&](std::size_t s) {
    CompressedComponent& result = out.components[s];
    const std::size_t size = result.nodes.size();
    const graph::CsrView slice{
        std::span<const double>(weights).subspan(first[s], size),
        std::span<const std::size_t>(offsets).subspan(first[s], size + 1),
        adjacency};
    // Lines 6–15: propagate labels until an end condition fires.
    result.propagation = propagate_labels(slice, config);
    // Line 16: merge same-label directly-connected nodes.
    result.compression = compress_by_labels(slice, result.propagation.labels);
  };

  // "create new process" per sub-graph (Line 6). Inside a pooled
  // per-user solve this runs inline: users are the parallel level.
  parallel::for_each_index(pool, out.components.size(), process_component);
  return out;
}

}  // namespace mecoff::lpa
