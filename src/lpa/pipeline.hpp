// Algorithm 1 end-to-end: remove unoffloadable functions, split at
// component boundaries, then run label propagation + compression per
// component — one parallel_for index per component on the mini-Spark
// engine, matching the paper's "All propagation processes will be
// executed in parallel".
//
// The removal and the split are one pass over the user's own CSR: a
// BFS that never enters a pinned node numbers the sub-graphs and gives
// every offloadable node a sub-graph-local id (ascending original-id
// order), and a second pass lays out one per-user CSR of in-sub-graph
// neighbours, sub-graph by sub-graph. Propagation and the merge run on
// each sub-graph's slice of it (graph::CsrView); the compressed graph
// is the only graph a sub-graph builds. Local ids, each node's
// neighbour order and the (u, v) edge order are those of the induced
// sub-graph of the offloadable graph, so the results are bit-identical
// to building those graphs.
#pragma once

#include <ranges>
#include <vector>

#include "common/contracts.hpp"
#include "lpa/compressor.hpp"
#include "lpa/propagation.hpp"
#include "parallel/thread_pool.hpp"

namespace mecoff::lpa {

/// One component of the offloadable graph after compression.
struct CompressedComponent {
  /// The component's nodes in ORIGINAL application ids, ascending; a
  /// node's index here is its local id in `propagation` and
  /// `compression`.
  std::vector<graph::NodeId> nodes;
  /// Labels and compression of that component.
  PropagationResult propagation;
  CompressionResult compression;
};

struct CompressionPipelineResult {
  std::vector<CompressedComponent> components;

  /// Aggregate counts across components (the rows of Table I).
  [[nodiscard]] CompressionStats aggregate_stats() const;

  /// The ORIGINAL application node ids a (component index, compressed
  /// node) pair represents, ascending: a view that looks each member up
  /// in the component's `nodes`, valid while this result lives.
  [[nodiscard]] auto original_members(std::size_t component_index,
                                      graph::NodeId super_node) const {
    MECOFF_EXPECTS(component_index < components.size());
    const CompressedComponent& comp = components[component_index];
    MECOFF_EXPECTS(super_node < comp.compression.members.size());
    return comp.compression.members[super_node] |
           std::views::transform([&nodes = comp.nodes](graph::NodeId local) {
             return nodes[local];
           });
  }
};

/// Run Algorithm 1 on application graph `g`.
///
/// `unoffloadable[v]` pins node v to the device; such nodes are removed
/// before compression (they never appear in any component). `pool` may
/// be null for serial execution (the Fig. 9 "without Spark" path).
///
/// `declared_components` optionally assigns each ORIGINAL node to a
/// software component (Soot component boundaries); when given, the
/// split refines connectivity by these boundaries — compression never
/// merges functions of different declared components, exactly the
/// paper's "the coupling degree of two functions from two different
/// components must be small". A sub-graph is then one (declared
/// component, connected component) pair, so one declared component may
/// contribute a sub-graph that is not itself connected. Pass nullptr to
/// split purely by connectivity (the NETGEN experiments, where
/// components are exactly the generator's disjoint pieces). Either way
/// sub-graphs are numbered by their smallest node.
[[nodiscard]] CompressionPipelineResult compress_application(
    const graph::WeightedGraph& g, const std::vector<bool>& unoffloadable,
    const PropagationConfig& config, parallel::ThreadPool* pool = nullptr,
    const std::vector<std::uint32_t>* declared_components = nullptr);

}  // namespace mecoff::lpa
