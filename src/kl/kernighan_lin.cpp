#include "kl/kernighan_lin.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "obs/obs.hpp"

namespace mecoff::kl {

using graph::Bipartition;
using graph::NodeId;
using graph::WeightedGraph;

namespace {

/// D[v] = external cost − internal cost of v under `side`.
std::vector<double> compute_d_values(const WeightedGraph& g,
                                     const std::vector<std::uint8_t>& side) {
  std::vector<double> d(g.num_nodes(), 0.0);
  for (const graph::Edge& e : g.edges()) {
    const double sign = side[e.u] != side[e.v] ? 1.0 : -1.0;
    d[e.u] += sign * e.weight;
    d[e.v] += sign * e.weight;
  }
  return d;
}

struct Swap {
  NodeId a;  // from side 0
  NodeId b;  // from side 1
  double gain;
};

/// Unlocked nodes of `which` side ordered by descending D value,
/// truncated to kCandidateLimit.
std::vector<NodeId> top_candidates(const std::vector<std::uint8_t>& side,
                                   const std::vector<bool>& locked,
                                   const std::vector<double>& d,
                                   std::uint8_t which) {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < side.size(); ++v)
    if (side[v] == which && !locked[v]) out.push_back(v);
  std::sort(out.begin(), out.end(),
            [&](NodeId x, NodeId y) { return d[x] > d[y]; });
  if (out.size() > kCandidateLimit) out.resize(kCandidateLimit);
  return out;
}

}  // namespace

KlResult kernighan_lin_refine(const WeightedGraph& g, Bipartition initial) {
  MECOFF_EXPECTS(graph::is_valid_partition(g, initial.side));
  MECOFF_TRACE_SPAN_ARG("kl.refine", g.num_nodes());
  MECOFF_COUNTER_ADD("kl.refine.runs", 1);

  KlResult result;
  result.partition = std::move(initial);
  std::vector<std::uint8_t>& side = result.partition.side;

  for (std::size_t pass = 0; pass < kMaxPasses; ++pass) {
    std::vector<double> d = compute_d_values(g, side);
    std::vector<bool> locked(g.num_nodes(), false);
    std::vector<Swap> sequence;

    while (true) {
      const std::vector<NodeId> as = top_candidates(side, locked, d, 0);
      const std::vector<NodeId> bs = top_candidates(side, locked, d, 1);
      if (as.empty() || bs.empty()) break;

      Swap best{graph::kInvalidNode, graph::kInvalidNode,
                -std::numeric_limits<double>::infinity()};
      for (const NodeId a : as) {
        // Direct neighbors of a on side 1 can beat the top-D shortlist
        // because of the −2·w(a,b) term; include them too.
        std::vector<NodeId> b_pool = bs;
        for (const graph::Adjacency& adj : g.neighbors(a))
          if (side[adj.neighbor] == 1 && !locked[adj.neighbor])
            b_pool.push_back(adj.neighbor);
        for (const NodeId b : b_pool) {
          const double gain = d[a] + d[b] - 2.0 * g.edge_weight_between(a, b);
          if (gain > best.gain) best = Swap{a, b, gain};
        }
      }
      if (best.a == graph::kInvalidNode) break;

      // Tentatively swap: update D values as if a and b switched sides.
      locked[best.a] = true;
      locked[best.b] = true;
      sequence.push_back(best);
      for (const graph::Adjacency& adj : g.neighbors(best.a)) {
        if (locked[adj.neighbor]) continue;
        // Nodes on a's old side gain an external edge; nodes on the
        // other side lose one.
        d[adj.neighbor] +=
            (side[adj.neighbor] == side[best.a] ? 2.0 : -2.0) * adj.weight;
      }
      for (const graph::Adjacency& adj : g.neighbors(best.b)) {
        if (locked[adj.neighbor]) continue;
        d[adj.neighbor] +=
            (side[adj.neighbor] == side[best.b] ? 2.0 : -2.0) * adj.weight;
      }
    }

    // Best prefix of the tentative sequence.
    double cumulative = 0.0;
    double best_cumulative = 0.0;
    std::size_t best_prefix = 0;
    for (std::size_t i = 0; i < sequence.size(); ++i) {
      cumulative += sequence[i].gain;
      if (cumulative > best_cumulative) {
        best_cumulative = cumulative;
        best_prefix = i + 1;
      }
    }
    result.passes = pass + 1;
    if (best_prefix == 0 || best_cumulative <= 1e-12) break;  // converged

    for (std::size_t i = 0; i < best_prefix; ++i) {
      side[sequence[i].a] = 1;
      side[sequence[i].b] = 0;
    }
    result.total_gain += best_cumulative;
  }

  result.partition.cut_weight = graph::cut_weight(g, side);
  MECOFF_COUNTER_ADD("kl.refine.passes", result.passes);
  MECOFF_GAUGE_ADD("kl.refine.total_gain", result.total_gain);
  return result;
}

Bipartition KernighanLinBipartitioner::bipartition(const WeightedGraph& g) {
  Bipartition initial;
  initial.side.assign(g.num_nodes(), 0);
  if (g.num_nodes() < 2) return initial;

  // Random balanced start (classic KL assumes |A| ≈ |B|).
  std::vector<NodeId> order(g.num_nodes());
  std::iota(order.begin(), order.end(), NodeId{0});
  Rng rng(kStartSeed);
  rng.shuffle(order);
  for (std::size_t i = 0; i < order.size() / 2; ++i) initial.side[order[i]] = 1;
  initial.cut_weight = graph::cut_weight(g, initial.side);

  return kernighan_lin_refine(g, std::move(initial)).partition;
}

}  // namespace mecoff::kl
