// Induced subgraph extraction with provenance mapping: a sub-graph as
// its own WeightedGraph plus the map back to parent node ids. The
// compression pipeline does not build these (it splits in one pass over
// the user's CSR, lpa/pipeline.hpp); perfbench's stage replay and the
// reference pipeline in tests/lpa_test.cpp do.
#pragma once

#include <span>
#include <vector>

#include "graph/weighted_graph.hpp"

namespace mecoff::graph {

/// An induced subgraph plus the mapping back to the parent graph.
struct Subgraph {
  WeightedGraph graph;
  /// to_parent[local id] = parent node id.
  std::vector<NodeId> to_parent;
};

/// Induced subgraph on `nodes` (must be unique, valid ids). Edges with
/// both endpoints inside `nodes` are kept; weights are preserved.
[[nodiscard]] Subgraph induced_subgraph(const WeightedGraph& parent,
                                        std::span<const NodeId> nodes);

/// Copy of `parent` with `remove[v] == true` nodes dropped (and their
/// incident edges). `to_parent` maps surviving local ids to parent ids.
[[nodiscard]] Subgraph remove_nodes(const WeightedGraph& parent,
                                    const std::vector<bool>& remove);

}  // namespace mecoff::graph
