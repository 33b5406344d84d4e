#include "graph/partition.hpp"

#include "common/contracts.hpp"

namespace mecoff::graph {

std::size_t Bipartition::size(std::uint8_t which) const {
  std::size_t count = 0;
  for (const std::uint8_t s : side)
    if (s == which) ++count;
  return count;
}

double cut_weight(const WeightedGraph& g,
                  const std::vector<std::uint8_t>& side) {
  MECOFF_EXPECTS(side.size() == g.num_nodes());
  double sum = 0.0;
  for (const Edge& e : g.edges())
    if (side[e.u] != side[e.v]) sum += e.weight;
  return sum;
}

bool is_valid_partition(const WeightedGraph& g,
                        const std::vector<std::uint8_t>& side) {
  if (side.size() != g.num_nodes()) return false;
  for (const std::uint8_t s : side)
    if (s > 1) return false;
  return true;
}

}  // namespace mecoff::graph
