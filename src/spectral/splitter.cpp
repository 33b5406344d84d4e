#include "spectral/splitter.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/contracts.hpp"

namespace mecoff::spectral {

using graph::Bipartition;
using graph::NodeId;
using graph::WeightedGraph;

Bipartition sign_split(const WeightedGraph& g,
                       std::span<const double> fiedler) {
  MECOFF_EXPECTS(fiedler.size() == g.num_nodes());
  Bipartition out;
  out.side.resize(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    out.side[v] = fiedler[v] > 0.0 ? 1 : 0;
  out.cut_weight = graph::cut_weight(g, out.side);
  return out;
}

Bipartition sweep_split(const WeightedGraph& g,
                        std::span<const double> fiedler) {
  MECOFF_EXPECTS(fiedler.size() == g.num_nodes());
  const std::size_t n = g.num_nodes();
  Bipartition out;
  out.side.assign(n, 0);
  if (n < 2) {
    out.cut_weight = 0.0;
    return out;
  }

  // Nodes in ascending Fiedler order; prefix k goes to side 0.
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return fiedler[a] != fiedler[b] ? fiedler[a] < fiedler[b] : a < b;
  });

  // Incremental cut maintenance: start with everything on side 1; move
  // nodes to side 0 in sweep order. Moving node v changes the cut by
  // Σ_(v,u) w · (+1 if u still on side 1, −1 if u already moved).
  std::vector<bool> moved(n, false);
  double cut = 0.0;
  double best_cut = 0.0;
  std::size_t best_prefix = 0;
  bool have_best = false;

  for (std::size_t k = 0; k + 1 < n; ++k) {  // leave side 1 non-empty
    const NodeId v = order[k];
    for (const graph::Adjacency& adj : g.neighbors(v))
      cut += moved[adj.neighbor] ? -adj.weight : adj.weight;
    moved[v] = true;
    if (!have_best || cut < best_cut) {
      best_cut = cut;
      best_prefix = k + 1;
      have_best = true;
    }
  }
  MECOFF_ENSURES(have_best);

  for (std::size_t i = 0; i < n; ++i)
    out.side[order[i]] = i < best_prefix ? 0 : 1;
  out.cut_weight = best_cut;
  MECOFF_ENSURES(std::abs(out.cut_weight -
                          graph::cut_weight(g, out.side)) <=
                 1e-6 * (1.0 + std::abs(out.cut_weight)));
  return out;
}

}  // namespace mecoff::spectral
