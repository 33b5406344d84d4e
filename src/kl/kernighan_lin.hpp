// Kernighan–Lin two-way partition refinement [Kernighan & Lin, BSTJ
// 1970] — the second baseline in the paper's evaluation. Starts from a
// balanced partition and repeatedly executes KL passes: tentatively
// swap the pair with the best gain g = D_a + D_b − 2·w(a,b), lock the
// pair, and at the end of the pass commit the best prefix of swaps if
// its cumulative gain is positive.
//
// Each swap picks the best-gain pair from a shortlist: the
// kCandidateLimit unlocked nodes of highest D value on each side, plus,
// for each side-0 candidate a, a's unlocked neighbours on side 1 (the
// −2·w(a,b) term can favour them). When each side has at most
// kCandidateLimit unlocked nodes the shortlist holds every node, and
// the pick is the exact best pair.
#pragma once

#include <cstdint>

#include "graph/partition.hpp"

namespace mecoff::kl {

/// Passes per refinement; a pass that commits no positive-gain prefix
/// ends it earlier.
inline constexpr std::size_t kMaxPasses = 10;

/// Unlocked nodes per side on a swap's shortlist.
inline constexpr std::size_t kCandidateLimit = 64;

/// Seed of KernighanLinBipartitioner's random balanced start.
inline constexpr std::uint64_t kStartSeed = 0x6b31;

struct KlResult {
  graph::Bipartition partition;
  std::size_t passes = 0;
  double total_gain = 0.0;  ///< cut-weight reduction across all passes
};

/// Refine `initial` (sizes are preserved — KL swaps pairs).
[[nodiscard]] KlResult kernighan_lin_refine(const graph::WeightedGraph& g,
                                            graph::Bipartition initial);

/// Full baseline: random balanced initial partition, then refinement.
class KernighanLinBipartitioner final : public graph::Bipartitioner {
 public:
  [[nodiscard]] graph::Bipartition bipartition(
      const graph::WeightedGraph& g) override;

  [[nodiscard]] std::string name() const override { return "kl"; }
};

}  // namespace mecoff::kl
