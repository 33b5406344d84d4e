#include "mincut/bipartitioner.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "graph/components.hpp"

namespace mecoff::mincut {

using graph::Bipartition;
using graph::NodeId;
using graph::WeightedGraph;

MaxFlowBipartitioner::MaxFlowBipartitioner(MaxFlowCutOptions options)
    : options_(options) {}

Bipartition MaxFlowBipartitioner::bipartition(const WeightedGraph& g) {
  Bipartition out;
  out.side.assign(g.num_nodes(), 0);
  if (g.num_nodes() < 2) return out;

  // Disconnected input: a component boundary is already a zero cut.
  const graph::ComponentLabels comps = graph::connected_components(g);
  if (comps.count > 1) {
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      out.side[v] = comps.component_of[v] == 0 ? 0 : 1;
    out.cut_weight = 0.0;
    return out;
  }

  // Best of k random terminal pairs; the first lightest cut wins ties.
  Rng rng(kTerminalSeed);
  Bipartition best;
  for (std::size_t i = 0; i < std::max<std::size_t>(1, options_.num_pairs);
       ++i) {
    const NodeId s = static_cast<NodeId>(rng.index(g.num_nodes()));
    NodeId t = static_cast<NodeId>(rng.index(g.num_nodes()));
    if (t == s) t = (s + 1) % static_cast<NodeId>(g.num_nodes());
    Bipartition cut = min_st_cut_dinic(g, s, t);
    if (i == 0 || cut.cut_weight < best.cut_weight) best = std::move(cut);
  }
  return best;
}

}  // namespace mecoff::mincut
