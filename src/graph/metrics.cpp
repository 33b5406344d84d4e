#include "graph/metrics.hpp"

#include <algorithm>
#include <limits>

namespace mecoff::graph {

GraphStats compute_stats(const WeightedGraph& g) {
  GraphStats s;
  s.nodes = g.num_nodes();
  s.edges = g.num_edges();
  s.total_node_weight = g.total_node_weight();
  s.total_edge_weight = g.total_edge_weight();
  if (s.nodes > 0) {
    std::size_t degree_sum = 0;
    for (NodeId v = 0; v < s.nodes; ++v) {
      degree_sum += g.degree(v);
      s.max_degree = std::max(s.max_degree, g.degree(v));
    }
    s.avg_degree = static_cast<double>(degree_sum) /
                   static_cast<double>(s.nodes);
  }
  if (s.edges > 0) {
    s.min_edge_weight = std::numeric_limits<double>::infinity();
    for (const Edge& e : g.edges()) {
      s.min_edge_weight = std::min(s.min_edge_weight, e.weight);
      s.max_edge_weight = std::max(s.max_edge_weight, e.weight);
    }
  }
  return s;
}

}  // namespace mecoff::graph
