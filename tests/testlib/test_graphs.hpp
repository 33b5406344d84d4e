// Closed-form graph inputs for the test suites: fixed shapes with
// analytically known minimum cuts (path, cycle, complete, star, grid,
// barbell) and a tree-like call graph with shortcut data edges. The
// benches and examples draw their graphs from graph::netgen_style.
#pragma once

#include <cstdint>

#include "graph/weighted_graph.hpp"

namespace mecoff::graph {

struct CallGraphParams {
  std::size_t functions = 64;
  /// Pareto shape for fan-out (smaller => heavier tail).
  double fanout_shape = 1.6;
  double min_compute = 1.0;
  double max_compute = 100.0;
  double min_data = 1.0;
  double max_data = 20.0;
  /// Probability of an extra "shortcut" data edge between random nodes.
  double shortcut_probability = 0.08;
  std::uint64_t seed = 1;
};

/// Tree-like function call graph with shortcut data edges (connected).
[[nodiscard]] WeightedGraph app_call_graph(const CallGraphParams& params);

/// Path v0 - v1 - ... - v(n-1); all node weights `nw`, edge weights `ew`.
[[nodiscard]] WeightedGraph path_graph(std::size_t n, double nw = 1.0,
                                       double ew = 1.0);

/// Cycle on n >= 3 nodes.
[[nodiscard]] WeightedGraph cycle_graph(std::size_t n, double nw = 1.0,
                                        double ew = 1.0);

/// Complete graph on n nodes.
[[nodiscard]] WeightedGraph complete_graph(std::size_t n, double nw = 1.0,
                                           double ew = 1.0);

/// Star: center 0 connected to n-1 leaves.
[[nodiscard]] WeightedGraph star_graph(std::size_t n, double nw = 1.0,
                                       double ew = 1.0);

/// rows x cols grid with 4-neighborhood.
[[nodiscard]] WeightedGraph grid_graph(std::size_t rows, std::size_t cols,
                                       double nw = 1.0, double ew = 1.0);

/// Two cliques of size `clique` joined by a single bridge edge of weight
/// `bridge_weight` — the bridge is the unique minimum cut when
/// bridge_weight < clique-internal connectivity.
[[nodiscard]] WeightedGraph barbell_graph(std::size_t clique,
                                          double bridge_weight = 1.0,
                                          double clique_edge_weight = 10.0);

}  // namespace mecoff::graph
