// Weighted undirected graph — the paper's "function data flow graph".
//
// Node weights model the amount of computation of a function (w_j in
// formula (1)); edge weights model the amount of communication between
// two functions (s(v_j, v_l) in formulas (4)/(5), |a|,|b|,... in Fig. 1).
//
// The graph is immutable after construction; mutation goes through
// GraphBuilder, which also collapses parallel edges by summing their
// weights (two functions exchanging several values communicate their
// total amount). Because instances are immutable, the storage is a
// shared payload: copying a WeightedGraph is a refcount bump, which is
// what lets the multi-user experiments hold thousands of users sharing
// a handful of distinct graphs without duplicating them.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "graph/types.hpp"

namespace mecoff::graph {

/// One directed half of an undirected edge as seen from a node's
/// adjacency list.
struct Adjacency {
  NodeId neighbor;
  double weight;
  EdgeId edge;
};

/// An undirected edge. A built graph stores each edge once, as
/// (min, max): u < v always holds.
struct Edge {
  NodeId u;
  NodeId v;
  double weight;
};

/// A read-only CSR (compressed sparse row) adjacency: node v's
/// neighbours are adjacency[offsets[v] .. offsets[v + 1]), ascending by
/// neighbour, each undirected edge once from either end. `offsets`
/// index the whole `adjacency` span, so one sub-graph's slice of a
/// larger CSR is a view without a copy. A WeightedGraph is one
/// (`WeightedGraph::csr()`); so is each sub-graph of the compression
/// pipeline (lpa/pipeline.hpp).
struct CsrView {
  std::span<const double> node_weights;
  /// num_nodes() + 1 entries; empty for an empty graph.
  std::span<const std::size_t> offsets;
  std::span<const Adjacency> adjacency;

  [[nodiscard]] std::size_t num_nodes() const { return node_weights.size(); }
  [[nodiscard]] std::size_t degree(NodeId v) const {
    return offsets[v + 1] - offsets[v];
  }
  [[nodiscard]] std::span<const Adjacency> neighbors(NodeId v) const {
    return adjacency.subspan(offsets[v], degree(v));
  }
};

class GraphBuilder;

class WeightedGraph {
 public:
  WeightedGraph() = default;

  [[nodiscard]] std::size_t num_nodes() const {
    return data_ ? data_->node_weights.size() : 0;
  }
  [[nodiscard]] std::size_t num_edges() const {
    return data_ ? data_->edges.size() : 0;
  }
  [[nodiscard]] bool empty() const { return num_nodes() == 0; }

  /// Computation weight of node `v`.
  [[nodiscard]] double node_weight(NodeId v) const;

  /// Neighbors of `v` with per-edge communication weights.
  [[nodiscard]] std::span<const Adjacency> neighbors(NodeId v) const;

  /// Number of incident edges of `v`.
  [[nodiscard]] std::size_t degree(NodeId v) const;

  /// All undirected edges, sorted by (u, v) with u < v; EdgeIds index
  /// this order.
  [[nodiscard]] std::span<const Edge> edges() const {
    return data_ ? std::span<const Edge>(data_->edges)
                 : std::span<const Edge>();
  }

  [[nodiscard]] const Edge& edge(EdgeId e) const;

  /// This graph's own arrays as a CsrView; valid while any copy of this
  /// graph holds the payload.
  [[nodiscard]] CsrView csr() const;

  /// Sum of all node weights (total computation of the application).
  [[nodiscard]] double total_node_weight() const;

  /// Sum of all edge weights (total communication volume).
  [[nodiscard]] double total_edge_weight() const;

  /// Weight of edge {u, v}; 0.0 when absent.
  [[nodiscard]] double edge_weight_between(NodeId u, NodeId v) const;

  /// Identity of the shared payload: copies of one built graph return
  /// the same pointer, separately built graphs never do (whatever their
  /// contents), so equal ids imply equal graphs without a comparison.
  [[nodiscard]] const void* payload_id() const { return data_.get(); }

 private:
  friend class GraphBuilder;

  /// Immutable shared payload; CSR adjacency:
  /// adjacency[offsets[v] .. offsets[v+1]).
  struct Data {
    std::vector<double> node_weights;
    std::vector<Edge> edges;
    std::vector<std::size_t> offsets;
    std::vector<Adjacency> adjacency;
  };

  std::shared_ptr<const Data> data_;
};

/// Accumulates nodes and edges, then produces an immutable WeightedGraph.
///
/// - Self-loops are rejected (a function does not communicate with itself
///   over the network).
/// - Parallel edges are merged by summing weights from 0.0 in insertion
///   order (so a -0.0 weight is stored as +0.0).
/// - Node and edge weights must be non-negative and finite.
class GraphBuilder {
 public:
  GraphBuilder() = default;

  /// Pre-size for `n` nodes of weight 0.
  explicit GraphBuilder(std::size_t n);

  /// Reserve room for `nodes` nodes and `edges` add_edge calls in all.
  void reserve(std::size_t nodes, std::size_t edges);

  /// Append a node; returns its id.
  NodeId add_node(double weight);

  /// Number of nodes added so far.
  [[nodiscard]] std::size_t num_nodes() const { return node_weights_.size(); }

  /// Overwrite the weight of an existing node.
  void set_node_weight(NodeId v, double weight);

  /// Add (or accumulate onto) the undirected edge {u, v}.
  void add_edge(NodeId u, NodeId v, double weight);

  /// Build the immutable graph. The builder is left empty.
  [[nodiscard]] WeightedGraph build();

 private:
  std::vector<double> node_weights_;
  std::vector<Edge> raw_edges_;
};

}  // namespace mecoff::graph
