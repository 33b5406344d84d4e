#include "testlib/edmonds_karp.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "common/contracts.hpp"

namespace mecoff::mincut {

using graph::NodeId;

MaxFlowResult edmonds_karp(FlowNetwork& net, NodeId s, NodeId t) {
  MECOFF_EXPECTS(s < net.num_nodes() && t < net.num_nodes() && s != t);
  MaxFlowResult result;

  // parent_arc[v] = (node u, index into net.arcs(u)) of the BFS tree arc
  // entering v on the current augmenting path.
  std::vector<std::pair<NodeId, std::size_t>> parent_arc(net.num_nodes());
  std::vector<std::uint8_t> visited(net.num_nodes(), 0);

  while (true) {
    std::fill(visited.begin(), visited.end(), 0);
    std::queue<NodeId> frontier;
    visited[s] = 1;
    frontier.push(s);
    bool found = false;
    while (!frontier.empty() && !found) {
      const NodeId u = frontier.front();
      frontier.pop();
      const auto& arcs = net.arcs(u);
      for (std::size_t i = 0; i < arcs.size(); ++i) {
        const Arc& arc = arcs[i];
        if (arc.capacity <= 1e-12 || visited[arc.to]) continue;
        visited[arc.to] = 1;
        parent_arc[arc.to] = {u, i};
        if (arc.to == t) {
          found = true;
          break;
        }
        frontier.push(arc.to);
      }
    }
    if (!found) break;

    // Bottleneck along the path, then augment.
    double bottleneck = std::numeric_limits<double>::infinity();
    for (NodeId v = t; v != s;) {
      const auto [u, idx] = parent_arc[v];
      bottleneck = std::min(bottleneck, net.arcs(u)[idx].capacity);
      v = u;
    }
    for (NodeId v = t; v != s;) {
      const auto [u, idx] = parent_arc[v];
      net.push(u, idx, bottleneck);
      v = u;
    }
    result.flow_value += bottleneck;
    ++result.augmenting_paths;
  }

  result.source_side = net.reachable_from(s);
  return result;
}

graph::Bipartition min_st_cut_edmonds_karp(const graph::WeightedGraph& g,
                                           NodeId s, NodeId t) {
  FlowNetwork net = FlowNetwork::from_graph(g);
  const MaxFlowResult flow = edmonds_karp(net, s, t);
  graph::Bipartition out;
  out.side.resize(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    out.side[v] = flow.source_side[v] ? 0 : 1;
  out.cut_weight = graph::cut_weight(g, out.side);
  return out;
}

}  // namespace mecoff::mincut
