// Edmonds–Karp: Ford–Fulkerson with BFS augmenting paths — the variant
// the paper names ("A specialized Ford-Fulkerson algorithm, also called
// as Edmond-Karp algorithm guarantees to find maximum flow in limited
// number of iterations"). O(V·E²). The shipped max-flow baseline runs
// Dinic, which finds the same maximum flow; this is its test oracle.
#pragma once

#include "graph/partition.hpp"
#include "mincut/dinic.hpp"  // MaxFlowResult
#include "mincut/flow_network.hpp"

namespace mecoff::mincut {

/// Max flow (= min s–t cut, by duality) from `s` to `t`. The network is
/// consumed (residual capacities are mutated).
[[nodiscard]] MaxFlowResult edmonds_karp(FlowNetwork& net, graph::NodeId s,
                                         graph::NodeId t);

/// Convenience: min s–t cut of an undirected weighted graph, returned
/// as a Bipartition (side 0 = source side).
[[nodiscard]] graph::Bipartition min_st_cut_edmonds_karp(
    const graph::WeightedGraph& g, graph::NodeId s, graph::NodeId t);

}  // namespace mecoff::mincut
