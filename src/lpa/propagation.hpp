// Label propagation with the paper's coupling-aware label rule
// (Section III-A, "Label initialization and propagation"):
//
//  * the starter node is the one with maximum degree;
//  * a label crosses an edge only when that edge's weight exceeds the
//    coupling threshold `w` — heavier-than-threshold neighbors join the
//    labeled node's cluster, lighter neighbors receive fresh labels;
//  * nodes are visited breadth-first from the starter;
//  * rounds repeat until the update rate α = updated/total falls to
//    α_t, or β_t rounds have run (the two "end of propagation" rules).
//
// After round one every node is labeled; later rounds re-evaluate each
// node against its heaviest super-threshold labeled neighbor, letting
// clusters flow along strongly coupled paths.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/weighted_graph.hpp"

namespace mecoff::lpa {

struct PropagationConfig {
  /// Coupling threshold `w`: labels propagate across edges with weight
  /// strictly greater than this.
  double coupling_threshold = 5.0;
  /// α_t — stop when the fraction of nodes whose label changed in a
  /// round drops to or below this.
  double min_update_rate = 0.01;
  /// β_t — hard cap on propagation rounds.
  std::size_t max_rounds = 20;
};

struct PropagationResult {
  /// Final label per node; labels are dense in [0, num_labels).
  std::vector<std::uint32_t> labels;
  /// Rounds actually executed.
  std::size_t rounds = 0;
  /// α per round, for diagnostics and tests of the termination rule.
  std::vector<double> update_rates;
  std::uint32_t num_labels = 0;
};

/// Run coupling-aware label propagation on (a component of) a function
/// data flow graph. Deterministic: ties are broken toward the smaller
/// label, and the BFS order is fixed by the starter and node ids.
[[nodiscard]] PropagationResult propagate_labels(
    const graph::WeightedGraph& g, const PropagationConfig& config);

/// The same over a CSR view, e.g. one sub-graph's slice of the per-user
/// CSR compress_application lays out; the overload above runs this on
/// `g.csr()`.
[[nodiscard]] PropagationResult propagate_labels(
    const graph::CsrView& g, const PropagationConfig& config);

/// The paper's starter rule: node with the largest degree (smallest id
/// on ties); kInvalidNode for an empty graph.
[[nodiscard]] graph::NodeId select_starter(const graph::WeightedGraph& g);

}  // namespace mecoff::lpa
