// Workload generator.
//
// netgen_style() is the repo's substitute for the NETGEN tool the paper
// uses: it honours the same knobs (node count, edge count, weight
// ranges) and produces clustered graphs "similar to the actual function
// data flow graph of mobile applications" — heavy intra-cluster edges
// (tightly coupled helper functions) and light inter-cluster edges
// (loose module boundaries), grouped into components. The fixed shapes
// with known minimum cuts that the test suites use live in
// tests/testlib/test_graphs.hpp.
#pragma once

#include <cstdint>

#include "graph/weighted_graph.hpp"

namespace mecoff::graph {

struct NetgenParams {
  std::size_t nodes = 250;
  std::size_t edges = 1214;
  double min_node_weight = 1.0;
  double max_node_weight = 50.0;
  double min_edge_weight = 1.0;
  double max_edge_weight = 10.0;
  /// Number of disjoint components (software components of the app).
  std::size_t components = 4;
  /// Average nodes per tightly-coupled cluster inside a component.
  std::size_t cluster_size = 12;
  /// Multiplier applied to intra-cluster edge weights (coupling degree).
  double heavy_weight_multiplier = 8.0;
  std::uint64_t seed = 1;
};

/// NETGEN-style clustered random graph. Guarantees: exactly
/// `params.nodes` nodes; each component is internally connected; edge
/// count is close to `params.edges` (never below nodes - components,
/// the spanning-forest minimum; duplicate candidates are merged so the
/// final count can be slightly under the target).
[[nodiscard]] WeightedGraph netgen_style(const NetgenParams& params);

/// netgen_style plus the generator's ground truth, for workload
/// construction (e.g. pinning one "UI" cluster per component) and
/// generator tests.
struct NetgenResult {
  WeightedGraph graph;
  /// Tightly-coupled cluster id per node (dense, grouped contiguously).
  std::vector<std::uint32_t> cluster_of;
  /// Component id per node.
  std::vector<std::uint32_t> component_of;
};
[[nodiscard]] NetgenResult netgen_style_with_metadata(
    const NetgenParams& params);

}  // namespace mecoff::graph
