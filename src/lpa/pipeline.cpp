#include "lpa/pipeline.hpp"

#include <map>

#include "common/contracts.hpp"
#include "graph/components.hpp"

namespace mecoff::lpa {

using graph::NodeId;
using graph::WeightedGraph;

CompressionStats CompressionPipelineResult::aggregate_stats() const {
  CompressionStats total;
  for (const CompressedComponent& comp : components)
    total += comp.compression.stats;
  return total;
}

std::vector<NodeId> CompressionPipelineResult::original_members(
    std::size_t component_index, NodeId super_node) const {
  MECOFF_EXPECTS(component_index < components.size());
  const CompressedComponent& comp = components[component_index];
  MECOFF_EXPECTS(super_node < comp.compression.members.size());
  std::vector<NodeId> out;
  for (const NodeId local : comp.compression.members[super_node]) {
    const NodeId offloadable_id = comp.component.to_parent[local];
    out.push_back(offloadable.to_parent[offloadable_id]);
  }
  return out;
}

CompressionPipelineResult compress_application(
    const WeightedGraph& g, const std::vector<bool>& unoffloadable,
    const PropagationConfig& config, parallel::ThreadPool* pool,
    const std::vector<std::uint32_t>* declared_components) {
  MECOFF_EXPECTS(unoffloadable.size() == g.num_nodes());
  MECOFF_EXPECTS(declared_components == nullptr ||
                 declared_components->size() == g.num_nodes());

  CompressionPipelineResult out;
  // Line 1 of Algorithm 1: remove unoffloadable functions.
  out.offloadable = graph::remove_nodes(g, unoffloadable);

  // Lines 2–4: split into component sub-graphs. Connectivity defines
  // the split; declared software-component boundaries refine it (two
  // connected nodes of different declared components must not share a
  // sub-graph, so compression can never merge them).
  graph::ComponentLabels comps;
  if (declared_components == nullptr) {
    comps = graph::connected_components(out.offloadable.graph);
  } else {
    const graph::ComponentLabels connectivity =
        connected_components(out.offloadable.graph);
    // Dense relabeling of (declared, connectivity) pairs.
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t> remap;
    comps.component_of.resize(out.offloadable.graph.num_nodes());
    for (NodeId v = 0; v < out.offloadable.graph.num_nodes(); ++v) {
      const std::uint32_t declared =
          (*declared_components)[out.offloadable.to_parent[v]];
      const auto key = std::make_pair(declared, connectivity.component_of[v]);
      const auto [it, inserted] = remap.try_emplace(
          key, static_cast<std::uint32_t>(remap.size()));
      comps.component_of[v] = it->second;
      (void)inserted;
    }
    comps.count = static_cast<std::uint32_t>(remap.size());
  }
  const std::vector<std::vector<NodeId>> node_lists =
      graph::component_node_lists(comps);

  out.components.resize(node_lists.size());
  const auto process_component = [&](std::size_t c) {
    CompressedComponent& result = out.components[c];
    result.component =
        graph::induced_subgraph(out.offloadable.graph, node_lists[c]);
    // Lines 6–15: propagate labels until an end condition fires.
    result.propagation = propagate_labels(result.component.graph, config);
    // Line 16: merge same-label directly-connected nodes.
    result.compression =
        compress_by_labels(result.component.graph, result.propagation.labels);
  };

  // "create new process" per sub-graph (Line 6). Inside a pooled
  // per-user solve this runs inline: users are the parallel level.
  parallel::for_each_index(pool, out.components.size(), process_component);
  return out;
}

}  // namespace mecoff::lpa
