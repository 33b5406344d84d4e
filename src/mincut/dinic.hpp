// Dinic's algorithm: level-graph BFS + blocking-flow DFS, O(V²·E). It
// finds the same maximum flow as Edmonds–Karp, the Ford–Fulkerson
// variant the paper names, and is asymptotically faster, so the min-cut
// baseline scales to the 5000-node experiments. The test suites keep
// Edmonds–Karp as its oracle (tests/testlib/edmonds_karp.hpp).
#pragma once

#include "graph/partition.hpp"
#include "mincut/flow_network.hpp"

namespace mecoff::mincut {

struct MaxFlowResult {
  double flow_value = 0.0;
  std::size_t augmenting_paths = 0;
  /// Source-side indicator of the induced min cut (1 = reachable from s
  /// in the residual network).
  std::vector<std::uint8_t> source_side;
};

/// Max flow s→t via Dinic; network residuals are mutated.
[[nodiscard]] MaxFlowResult dinic(FlowNetwork& net, graph::NodeId s,
                                  graph::NodeId t);

/// Min s–t cut of an undirected graph via Dinic.
[[nodiscard]] graph::Bipartition min_st_cut_dinic(
    const graph::WeightedGraph& g, graph::NodeId s, graph::NodeId t);

}  // namespace mecoff::mincut
