// Kernighan–Lin two-way partition refinement [Kernighan & Lin, BSTJ
// 1970] — the second baseline in the paper's evaluation. Starts from a
// balanced partition and repeatedly executes KL passes: tentatively
// swap the pair with the best gain g = D_a + D_b − 2·w(a,b), lock the
// pair, and at the end of the pass commit the best prefix of swaps if
// its cumulative gain is positive.
//
// Pair selection per swap is exact over all unlocked pairs when
// `exact_pair_selection` (O(n³) per pass — fine for compressed graphs
// and tests) or restricted to the top `candidate_limit` D-value nodes
// per side plus direct neighbors (near-exact, much faster) otherwise.
#pragma once

#include <cstdint>

#include "graph/partition.hpp"

namespace mecoff::kl {

/// Passes per refinement; a pass that commits no positive-gain prefix
/// ends it earlier.
inline constexpr std::size_t kMaxPasses = 10;

struct KlOptions {
  bool exact_pair_selection = false;
  std::size_t candidate_limit = 64;
  std::uint64_t seed = 0x6b31;
};

struct KlResult {
  graph::Bipartition partition;
  std::size_t passes = 0;
  double total_gain = 0.0;  ///< cut-weight reduction across all passes
};

/// Refine `initial` (sizes are preserved — KL swaps pairs).
[[nodiscard]] KlResult kernighan_lin_refine(const graph::WeightedGraph& g,
                                            graph::Bipartition initial,
                                            const KlOptions& options);

/// Full baseline: random balanced initial partition, then refinement.
class KernighanLinBipartitioner final : public graph::Bipartitioner {
 public:
  explicit KernighanLinBipartitioner(KlOptions options = {});

  [[nodiscard]] graph::Bipartition bipartition(
      const graph::WeightedGraph& g) override;

  [[nodiscard]] std::string name() const override { return "kl"; }

 private:
  KlOptions options_;
};

}  // namespace mecoff::kl
