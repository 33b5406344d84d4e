// Two-way partition vocabulary shared by the spectral, max-flow and
// Kernighan–Lin cutters (the three algorithms compared in the paper's
// evaluation), plus the Bipartitioner interface they all implement.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/weighted_graph.hpp"

namespace mecoff::graph {

/// Side assignment of a two-way cut. By repo convention side 0 is the
/// part that will run locally and side 1 the part offloaded to the edge
/// server (the greedy scheme generator may later flip whole parts).
struct Bipartition {
  std::vector<std::uint8_t> side;  // 0 or 1, one entry per node
  double cut_weight = 0.0;         // Σ edge weights crossing the cut

  [[nodiscard]] std::size_t size(std::uint8_t which) const;
};

/// Σ weight of edges whose endpoints lie on different sides — the CUT of
/// formula (8) in the paper.
[[nodiscard]] double cut_weight(const WeightedGraph& g,
                                const std::vector<std::uint8_t>& side);

/// Validate a side vector: right length, entries in {0, 1}.
[[nodiscard]] bool is_valid_partition(const WeightedGraph& g,
                                      const std::vector<std::uint8_t>& side);

/// Interface implemented by every cut algorithm in this repo.
///
/// Implementations must handle degenerate inputs: an empty graph yields
/// an empty partition; a single node goes to side 0 with cut weight 0.
class Bipartitioner {
 public:
  virtual ~Bipartitioner() = default;

  /// Split `g` into two parts, attempting to minimize the cut weight.
  [[nodiscard]] virtual Bipartition bipartition(const WeightedGraph& g) = 0;

  /// Short display name for benches ("spectral", "maxflow", "kl").
  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace mecoff::graph
