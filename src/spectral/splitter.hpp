// Turning a Fiedler vector into a two-way cut ("The corresponding two
// parts of the cut can be gotten from the eigenvector corresponding to
// the second smallest eigenvalue", Section III-B).
//
// Two splits:
//  * sign split — the paper's q_i ∈ {+1, −1} indicator: side by sign of
//    v₂[i] (ties to side 0). Only the cut-quality ablation uses it;
//  * sweep split — sort nodes by v₂ value and take the prefix/suffix
//    threshold with the smallest cut weight; never worse than the sign
//    split and standard practice in spectral partitioning. The
//    SpectralBipartitioner always sweeps.
#pragma once

#include <span>

#include "graph/partition.hpp"
#include "graph/weighted_graph.hpp"

namespace mecoff::spectral {

/// Partition by the sign of the Fiedler vector entries.
[[nodiscard]] graph::Bipartition sign_split(const graph::WeightedGraph& g,
                                            std::span<const double> fiedler);

/// Sweep over thresholds in Fiedler order, returning the cut-minimizing
/// split with both sides non-empty.
[[nodiscard]] graph::Bipartition sweep_split(const graph::WeightedGraph& g,
                                             std::span<const double> fiedler);

}  // namespace mecoff::spectral
