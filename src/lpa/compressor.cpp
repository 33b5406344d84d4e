#include "lpa/compressor.hpp"

#include <numeric>

#include "common/contracts.hpp"

namespace mecoff::lpa {

using graph::Adjacency;
using graph::CsrView;
using graph::GraphBuilder;
using graph::NodeId;
using graph::WeightedGraph;

namespace {

/// Union-find with path halving.
class DisjointSets {
 public:
  explicit DisjointSets(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), NodeId{0});
  }

  NodeId find(NodeId v) {
    while (parent_[v] != v) {
      parent_[v] = parent_[parent_[v]];
      v = parent_[v];
    }
    return v;
  }

  void unite(NodeId a, NodeId b) {
    a = find(a);
    b = find(b);
    if (a != b) parent_[std::max(a, b)] = std::min(a, b);
  }

 private:
  std::vector<NodeId> parent_;
};

/// Calls fn(u, v, weight) for each undirected edge of `g` once, in
/// (u, v) order with u < v.
template <class Fn>
void for_each_edge(const CsrView& g, Fn&& fn) {
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    for (const Adjacency& adj : g.neighbors(u))
      if (u < adj.neighbor) fn(u, adj.neighbor, adj.weight);
}

}  // namespace

CompressionResult compress_by_labels(
    const WeightedGraph& g, const std::vector<std::uint32_t>& labels) {
  return compress_by_labels(g.csr(), labels);
}

CompressionResult compress_by_labels(
    const CsrView& g, const std::vector<std::uint32_t>& labels) {
  MECOFF_EXPECTS(labels.size() == g.num_nodes());
  const std::size_t n = g.num_nodes();

  // Super nodes = connected components under same-label edges.
  DisjointSets sets(n);
  for_each_edge(g, [&](NodeId u, NodeId v, double) {
    if (labels[u] == labels[v]) sets.unite(u, v);
  });

  CompressionResult out;
  out.super_of.assign(n, graph::kInvalidNode);

  GraphBuilder builder;
  for (NodeId v = 0; v < n; ++v) {
    const NodeId root = sets.find(v);
    if (out.super_of[root] == graph::kInvalidNode) {
      out.super_of[root] = builder.add_node(0.0);
      out.members.emplace_back();
    }
    out.super_of[v] = out.super_of[root];
    out.members[out.super_of[v]].push_back(v);
  }
  // Super node weight = Σ member computation weights.
  {
    std::vector<double> weights(out.members.size(), 0.0);
    for (NodeId v = 0; v < n; ++v)
      weights[out.super_of[v]] += g.node_weights[v];
    for (NodeId s = 0; s < out.members.size(); ++s)
      builder.set_node_weight(s, weights[s]);
  }

  double absorbed = 0.0;
  std::size_t edges = 0;
  for_each_edge(g, [&](NodeId u, NodeId v, double weight) {
    ++edges;
    const NodeId su = out.super_of[u];
    const NodeId sv = out.super_of[v];
    if (su == sv) {
      absorbed += weight;
    } else {
      builder.add_edge(su, sv, weight);  // builder sums parallels
    }
  });

  out.compressed = builder.build();
  out.stats.original_nodes = n;
  out.stats.original_edges = edges;
  out.stats.compressed_nodes = out.compressed.num_nodes();
  out.stats.compressed_edges = out.compressed.num_edges();
  out.stats.absorbed_edge_weight = absorbed;
  return out;
}

}  // namespace mecoff::lpa
