// The "maximum flow minimum cut" baseline of the paper's evaluation,
// wrapped as a Bipartitioner so it slots into the same offloading
// pipeline ("We change the minimum cut calculation process by the above
// mentioned three algorithms and compare their results").
//
// Max-flow computes an s–t cut, but the offloading problem has no
// natural terminals, so terminal selection is part of the baseline: the
// best (lightest) Dinic cut over `num_pairs` random terminal pairs
// drawn from kTerminalSeed (best-of-k; k = 8 by default).
#pragma once

#include <cstdint>

#include "graph/partition.hpp"
#include "mincut/dinic.hpp"

namespace mecoff::mincut {

/// Seed of the random terminal pairs.
inline constexpr std::uint64_t kTerminalSeed = 0x7ea1;

struct MaxFlowCutOptions {
  std::size_t num_pairs = 8;  ///< k: terminal pairs tried (0 runs one)
};

class MaxFlowBipartitioner final : public graph::Bipartitioner {
 public:
  explicit MaxFlowBipartitioner(MaxFlowCutOptions options = {});

  [[nodiscard]] graph::Bipartition bipartition(
      const graph::WeightedGraph& g) override;

  [[nodiscard]] std::string name() const override { return "maxflow"; }

 private:
  MaxFlowCutOptions options_;
};

}  // namespace mecoff::mincut
