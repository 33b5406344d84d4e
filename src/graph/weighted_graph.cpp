#include "graph/weighted_graph.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/contracts.hpp"

namespace mecoff::graph {

double WeightedGraph::node_weight(NodeId v) const {
  MECOFF_EXPECTS(v < num_nodes());
  return data_->node_weights[v];
}

std::span<const Adjacency> WeightedGraph::neighbors(NodeId v) const {
  MECOFF_EXPECTS(v < num_nodes());
  return {data_->adjacency.data() + data_->offsets[v],
          data_->offsets[v + 1] - data_->offsets[v]};
}

std::size_t WeightedGraph::degree(NodeId v) const {
  MECOFF_EXPECTS(v < num_nodes());
  return data_->offsets[v + 1] - data_->offsets[v];
}

const Edge& WeightedGraph::edge(EdgeId e) const {
  MECOFF_EXPECTS(e < num_edges());
  return data_->edges[e];
}

CsrView WeightedGraph::csr() const {
  if (!data_) return {};
  return {data_->node_weights, data_->offsets, data_->adjacency};
}

double WeightedGraph::total_node_weight() const {
  if (!data_) return 0.0;
  return std::accumulate(data_->node_weights.begin(),
                         data_->node_weights.end(), 0.0);
}

double WeightedGraph::total_edge_weight() const {
  double sum = 0.0;
  for (const Edge& e : edges()) sum += e.weight;
  return sum;
}

double WeightedGraph::edge_weight_between(NodeId u, NodeId v) const {
  for (const Adjacency& adj : neighbors(u))
    if (adj.neighbor == v) return adj.weight;
  return 0.0;
}

GraphBuilder::GraphBuilder(std::size_t n) : node_weights_(n, 0.0) {}

void GraphBuilder::reserve(std::size_t nodes, std::size_t edges) {
  node_weights_.reserve(nodes);
  raw_edges_.reserve(edges);
}

NodeId GraphBuilder::add_node(double weight) {
  MECOFF_EXPECTS(weight >= 0.0 && std::isfinite(weight));
  node_weights_.push_back(weight);
  return static_cast<NodeId>(node_weights_.size() - 1);
}

void GraphBuilder::set_node_weight(NodeId v, double weight) {
  MECOFF_EXPECTS(v < node_weights_.size());
  MECOFF_EXPECTS(weight >= 0.0 && std::isfinite(weight));
  node_weights_[v] = weight;
}

void GraphBuilder::add_edge(NodeId u, NodeId v, double weight) {
  MECOFF_EXPECTS(u < node_weights_.size());
  MECOFF_EXPECTS(v < node_weights_.size());
  MECOFF_EXPECTS(u != v);
  MECOFF_EXPECTS(weight >= 0.0 && std::isfinite(weight));
  raw_edges_.push_back(Edge{u, v, weight});
}

WeightedGraph GraphBuilder::build() {
  auto data = std::make_shared<WeightedGraph::Data>();
  data->node_weights = std::move(node_weights_);
  node_weights_.clear();

  // Merge parallel edges by canonical (min, max) endpoint key, in place:
  // orient, sort by endpoints, then sum each run of parallel copies from
  // 0.0. The sort is stable, so copies sum in insertion order, and it is
  // skipped when the edges already arrive sorted (every extraction from a
  // WeightedGraph over ascending node ids).
  for (Edge& e : raw_edges_)
    if (e.v < e.u) std::swap(e.u, e.v);
  const auto by_endpoints = [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  };
  if (!std::is_sorted(raw_edges_.begin(), raw_edges_.end(), by_endpoints))
    std::stable_sort(raw_edges_.begin(), raw_edges_.end(), by_endpoints);
  std::size_t merged = 0;
  for (const Edge e : raw_edges_) {  // a copy: slot `merged` may be e's
    if (merged == 0 || raw_edges_[merged - 1].u != e.u ||
        raw_edges_[merged - 1].v != e.v)
      raw_edges_[merged++] = Edge{e.u, e.v, 0.0};
    raw_edges_[merged - 1].weight += e.weight;
  }
  raw_edges_.resize(merged);
  data->edges = std::move(raw_edges_);
  raw_edges_.clear();

  // Build CSR adjacency (each undirected edge appears in both lists).
  const std::size_t n = data->node_weights.size();
  std::vector<std::size_t> counts(n, 0);
  for (const Edge& e : data->edges) {
    ++counts[e.u];
    ++counts[e.v];
  }
  data->offsets.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v)
    data->offsets[v + 1] = data->offsets[v] + counts[v];
  data->adjacency.resize(data->offsets[n]);

  std::vector<std::size_t> cursor(data->offsets.begin(),
                                  data->offsets.end() - 1);
  for (EdgeId id = 0; id < data->edges.size(); ++id) {
    const Edge& e = data->edges[id];
    data->adjacency[cursor[e.u]++] = Adjacency{e.v, e.weight, id};
    data->adjacency[cursor[e.v]++] = Adjacency{e.u, e.weight, id};
  }

  WeightedGraph g;
  g.data_ = std::move(data);
  return g;
}

}  // namespace mecoff::graph
