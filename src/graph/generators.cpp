#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"

namespace mecoff::graph {

namespace {

/// Partition `total` items into `parts` groups, each of size >= 1,
/// sizes roughly proportional with random jitter.
std::vector<std::size_t> random_partition_sizes(std::size_t total,
                                                std::size_t parts, Rng& rng) {
  MECOFF_EXPECTS(parts >= 1 && total >= parts);
  std::vector<std::size_t> sizes(parts, 1);
  std::size_t remaining = total - parts;
  for (std::size_t i = 0; i < remaining; ++i) sizes[rng.index(parts)] += 1;
  return sizes;
}

}  // namespace

WeightedGraph netgen_style(const NetgenParams& params) {
  return netgen_style_with_metadata(params).graph;
}

NetgenResult netgen_style_with_metadata(const NetgenParams& params) {
  MECOFF_EXPECTS(params.nodes >= 1);
  MECOFF_EXPECTS(params.components >= 1 &&
                 params.components <= params.nodes);
  MECOFF_EXPECTS(params.cluster_size >= 1);
  MECOFF_EXPECTS(params.min_node_weight <= params.max_node_weight);
  MECOFF_EXPECTS(params.min_edge_weight <= params.max_edge_weight);

  Rng rng(params.seed);
  GraphBuilder builder;
  for (std::size_t i = 0; i < params.nodes; ++i) {
    builder.add_node(
        rng.uniform(params.min_node_weight,
                    std::nextafter(params.max_node_weight, 1e308)));
  }

  const std::vector<std::size_t> comp_sizes =
      random_partition_sizes(params.nodes, params.components, rng);

  // Per node: its component and cluster (for weight assignment below,
  // and returned as generator ground truth).
  std::vector<std::uint32_t> cluster_of(params.nodes, 0);
  std::vector<std::uint32_t> component_of(params.nodes, 0);
  std::uint32_t next_cluster = 0;
  std::uint32_t next_component = 0;

  const auto light_weight = [&] {
    return rng.uniform(params.min_edge_weight,
                       std::nextafter(params.max_edge_weight, 1e308));
  };
  const auto heavy_weight = [&] {
    return light_weight() * params.heavy_weight_multiplier;
  };

  // Never emit the same node pair twice: the builder would merge the
  // parallel edges by summing, which can push two LIGHT edges past the
  // compression threshold and spuriously bridge clusters.
  std::set<std::pair<NodeId, NodeId>> used_pairs;
  const auto try_add = [&](NodeId a, NodeId b, double weight) {
    const auto key = std::minmax(a, b);
    if (!used_pairs.insert({key.first, key.second}).second) return false;
    builder.add_edge(a, b, weight);
    return true;
  };
  std::size_t edges_added = 0;

  std::size_t base = 0;
  std::vector<std::pair<std::size_t, std::size_t>> comp_ranges;
  for (const std::size_t comp_size : comp_sizes) {
    comp_ranges.emplace_back(base, base + comp_size);
    const std::uint32_t comp_id = next_component++;
    for (std::size_t i = 0; i < comp_size; ++i)
      component_of[base + i] = comp_id;

    // Carve the component into clusters of ~cluster_size nodes.
    const std::size_t n_clusters =
        std::max<std::size_t>(1, comp_size / params.cluster_size);
    const std::vector<std::size_t> cl_sizes =
        random_partition_sizes(comp_size, n_clusters, rng);

    std::size_t cl_base = base;
    std::vector<std::size_t> cluster_roots;
    for (const std::size_t cl_size : cl_sizes) {
      const std::uint32_t cl_id = next_cluster++;
      cluster_roots.push_back(cl_base);
      // Random spanning tree inside the cluster with HEAVY weights: these
      // are the tightly coupled functions compression should merge.
      for (std::size_t i = 0; i < cl_size; ++i) {
        cluster_of[cl_base + i] = cl_id;
        if (i > 0) {
          const std::size_t parent =
              cl_base + rng.index(i);  // attach to an earlier node
          if (try_add(static_cast<NodeId>(cl_base + i),
                      static_cast<NodeId>(parent), heavy_weight()))
            ++edges_added;
        }
      }
      cl_base += cl_size;
    }

    // Chain cluster roots with LIGHT edges so the component is connected
    // but cluster boundaries stay cheap to cut.
    for (std::size_t i = 1; i < cluster_roots.size(); ++i) {
      if (try_add(static_cast<NodeId>(cluster_roots[i - 1]),
                  static_cast<NodeId>(cluster_roots[i]), light_weight()))
        ++edges_added;
    }
    base += comp_size;
  }

  // Spend the remaining edge budget: ~90% extra heavy intra-cluster
  // edges, ~10% light intra-component edges (never across components —
  // components are independent applications/modules). Function data
  // flow graphs are dense INSIDE tightly coupled groups and sparse
  // between them; a high heavy share keeps module boundaries cheap to
  // cut, as in real applications.
  const std::size_t target_edges = std::max(params.edges, edges_added);
  std::size_t attempts = 0;
  const std::size_t max_attempts = 20 * target_edges + 1000;
  while (edges_added < target_edges && attempts < max_attempts) {
    ++attempts;
    // Pick a component weighted by size.
    const NodeId a = static_cast<NodeId>(rng.index(params.nodes));
    // Find a's component range.
    const auto it = std::upper_bound(
        comp_ranges.begin(), comp_ranges.end(), std::size_t{a},
        [](std::size_t v, const auto& range) { return v < range.second; });
    MECOFF_ENSURES(it != comp_ranges.end());
    const auto [lo, hi] = *it;
    if (hi - lo < 2) continue;
    const NodeId b = static_cast<NodeId>(
        lo + rng.index(hi - lo));
    if (a == b) continue;
    const bool same_cluster = cluster_of[a] == cluster_of[b];
    const bool want_heavy = rng.bernoulli(0.9);
    if (want_heavy != same_cluster) continue;  // match edge kind to locality
    if (try_add(a, b, same_cluster ? heavy_weight() : light_weight()))
      ++edges_added;
  }

  NetgenResult result;
  result.graph = builder.build();
  result.cluster_of = std::move(cluster_of);
  result.component_of = std::move(component_of);
  return result;
}

}  // namespace mecoff::graph
