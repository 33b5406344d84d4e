// Node merging ("Compression" in Section III-A): any two nodes in the
// same label cluster that are directly connected merge into one super
// node. Equivalently, the super nodes are the connected components of
// the subgraph restricted to same-label edges. Merged functions are
// guaranteed to execute on the same device, so their mutual
// communication never crosses the network.
//
// Weight semantics:
//  * super node weight = Σ member computation weights;
//  * an edge between two super nodes carries the Σ of all original
//    edges between their member sets (parallel edges collapse);
//  * edges internal to a super node vanish from the compressed graph —
//    their weight is recorded in `absorbed_edge_weight` so tests can
//    check conservation: total_edge_weight(original) =
//    total_edge_weight(compressed) + absorbed_edge_weight.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/weighted_graph.hpp"

namespace mecoff::lpa {

struct CompressionStats {
  std::size_t original_nodes = 0;
  std::size_t original_edges = 0;
  std::size_t compressed_nodes = 0;
  std::size_t compressed_edges = 0;
  double absorbed_edge_weight = 0.0;

  [[nodiscard]] double node_reduction() const {
    return original_nodes == 0
               ? 0.0
               : 1.0 - static_cast<double>(compressed_nodes) /
                           static_cast<double>(original_nodes);
  }

  CompressionStats& operator+=(const CompressionStats& other) {
    original_nodes += other.original_nodes;
    original_edges += other.original_edges;
    compressed_nodes += other.compressed_nodes;
    compressed_edges += other.compressed_edges;
    absorbed_edge_weight += other.absorbed_edge_weight;
    return *this;
  }
};

struct CompressionResult {
  graph::WeightedGraph compressed;
  /// super_of[original node] = compressed node id.
  std::vector<graph::NodeId> super_of;
  /// members[compressed node] = original node ids, ascending.
  std::vector<std::vector<graph::NodeId>> members;
  CompressionStats stats;
};

/// Merge directly-connected same-label nodes of `g`. `labels` must have
/// one entry per node.
[[nodiscard]] CompressionResult compress_by_labels(
    const graph::WeightedGraph& g, const std::vector<std::uint32_t>& labels);

/// The same over a CSR view, e.g. one sub-graph's slice of the per-user
/// CSR compress_application lays out; the overload above runs this on
/// `g.csr()`. Edges are read from each lower endpoint's ascending
/// adjacency, which is the (u, v) order of WeightedGraph::edges().
[[nodiscard]] CompressionResult compress_by_labels(
    const graph::CsrView& g, const std::vector<std::uint32_t>& labels);

}  // namespace mecoff::lpa
