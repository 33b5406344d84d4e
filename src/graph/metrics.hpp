// Summary statistics over weighted graphs, used by tests (to validate
// generators) and by EXPERIMENTS.md reporting.
#pragma once

#include <cstddef>

#include "graph/weighted_graph.hpp"

namespace mecoff::graph {

struct GraphStats {
  std::size_t nodes = 0;
  std::size_t edges = 0;
  double total_node_weight = 0.0;
  double total_edge_weight = 0.0;
  double avg_degree = 0.0;
  std::size_t max_degree = 0;
  double min_edge_weight = 0.0;
  double max_edge_weight = 0.0;
};

[[nodiscard]] GraphStats compute_stats(const WeightedGraph& g);

}  // namespace mecoff::graph
