#include "lpa/propagation.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "obs/obs.hpp"

namespace mecoff::lpa {

using graph::Adjacency;
using graph::CsrView;
using graph::NodeId;
using graph::WeightedGraph;

namespace {

constexpr std::uint32_t kUnlabeled = UINT32_MAX;

NodeId starter_of(const CsrView& g) {
  if (g.num_nodes() == 0) return graph::kInvalidNode;
  NodeId best = 0;
  std::size_t best_degree = g.degree(0);
  for (NodeId v = 1; v < g.num_nodes(); ++v) {
    if (g.degree(v) > best_degree) {
      best = v;
      best_degree = g.degree(v);
    }
  }
  return best;
}

/// Visit every node reachable from `starter` (then any remaining nodes,
/// so disconnected leftovers are still labeled) in BFS order. The order
/// vector is its own queue: `head` walks it while visits append to it.
std::vector<NodeId> traversal_order(const CsrView& g, NodeId starter) {
  const std::size_t n = g.num_nodes();
  std::vector<NodeId> order;
  order.reserve(n);
  std::vector<bool> seen(n, false);

  const auto visit_from = [&](NodeId root) {
    seen[root] = true;
    order.push_back(root);
    for (std::size_t head = order.size() - 1; head < order.size(); ++head) {
      for (const Adjacency& adj : g.neighbors(order[head])) {
        if (!seen[adj.neighbor]) {
          seen[adj.neighbor] = true;
          order.push_back(adj.neighbor);
        }
      }
    }
  };

  visit_from(starter);
  for (NodeId v = 0; v < n; ++v)
    if (!seen[v]) visit_from(v);
  MECOFF_ENSURES(order.size() == n);
  return order;
}

/// Relabel to a dense range [0, count).
std::uint32_t densify(std::vector<std::uint32_t>& labels) {
  std::vector<std::uint32_t> remap(labels.size(), kUnlabeled);
  std::uint32_t next = 0;
  for (std::uint32_t& label : labels) {
    MECOFF_ENSURES(label != kUnlabeled);
    if (remap[label] == kUnlabeled) remap[label] = next++;
    label = remap[label];
  }
  return next;
}

}  // namespace

graph::NodeId select_starter(const WeightedGraph& g) {
  return starter_of(g.csr());
}

PropagationResult propagate_labels(const WeightedGraph& g,
                                   const PropagationConfig& config) {
  return propagate_labels(g.csr(), config);
}

PropagationResult propagate_labels(const CsrView& g,
                                   const PropagationConfig& config) {
  MECOFF_EXPECTS(config.max_rounds >= 1);
  MECOFF_TRACE_SPAN_ARG("lpa.propagate", g.num_nodes());
  MECOFF_COUNTER_ADD("lpa.propagation.runs", 1);
  PropagationResult result;
  const std::size_t n = g.num_nodes();
  if (n == 0) return result;

  const NodeId starter = starter_of(g);
  const std::vector<NodeId> order = traversal_order(g, starter);

  result.labels.assign(n, kUnlabeled);
  std::uint32_t next_label = 0;

  for (std::size_t round = 0; round < config.max_rounds; ++round) {
    std::size_t updates = 0;
    for (const NodeId v : order) {
      // The label rule: a label crosses an edge only when the coupling
      // degree exceeds the threshold w. An unlabeled node adjacent to a
      // labeled node over such an edge joins that label; an unlabeled
      // node without one starts a fresh label ("given different
      // label"). When two labels meet across a super-threshold edge the
      // smaller label wins, so each round floods labels one step
      // further through the highly coupled regions; the fixpoint labels
      // every connected component of the super-threshold subgraph
      // uniformly — exactly the "highly coupled functions" the
      // compression step must merge.
      std::uint32_t candidate = result.labels[v];
      for (const Adjacency& adj : g.neighbors(v)) {
        if (adj.weight <= config.coupling_threshold) continue;
        const std::uint32_t neighbor_label = result.labels[adj.neighbor];
        if (neighbor_label < candidate) candidate = neighbor_label;
      }
      if (candidate == kUnlabeled) {  // no label reachable: fresh one
        result.labels[v] = next_label++;
        ++updates;
      } else if (result.labels[v] != candidate) {
        result.labels[v] = candidate;
        ++updates;
      }
    }

    result.rounds = round + 1;
    const double rate =
        static_cast<double>(updates) / static_cast<double>(n);
    result.update_rates.push_back(rate);
    MECOFF_COUNTER_ADD("lpa.propagation.rounds", 1);
    MECOFF_COUNTER_ADD("lpa.propagation.label_updates", updates);
    if (rate <= config.min_update_rate) break;
  }

  // α of the final round: how hard the termination rule had to brake.
  MECOFF_GAUGE_SET("lpa.propagation.last_update_rate",
                   result.update_rates.back());
  result.num_labels = densify(result.labels);
  return result;
}

}  // namespace mecoff::lpa
