// Fiedler pair (λ₂, v₂) of a weighted graph Laplacian — the quantity
// Theorem 1 of the paper ties to the minimum cut. λ₂ is the algebraic
// connectivity; the signs of v₂'s entries define the spectral
// bipartition.
//
// Solver backends:
//  * Lanczos (default): restarted Lanczos with full reorthogonalization
//    on L with the constant null vector deflated, its basis capped at
//    linalg::kLanczosMaxSubspace vectors;
//  * shifted power iteration (sparse, or dense for Fig. 9): dominant
//    pair of (c·I − L) after the same deflation, capped at
//    `max_iterations` steps — simpler, slower; kept for the eigensolver
//    ablation and as an independent oracle in tests.
//
// Every backend runs serially on the calling thread. Fig. 9's "with
// Spark" configuration parallelizes across sub-graphs instead (see
// PipelineOptions::pool); no matvec fans out.
#pragma once

#include <optional>

#include "graph/weighted_graph.hpp"
#include "linalg/lanczos.hpp"

namespace mecoff::parallel {
class ThreadPool;
}  // namespace mecoff::parallel

namespace mecoff::spectral {

enum class EigenBackend {
  kLanczos,
  kShiftedPower,
  /// Shifted power iteration on an explicitly formed DENSE Laplacian
  /// (O(n²) per matvec) — a deliberately naive backend reproducing the
  /// eigensolver the paper times in Fig. 9 ("lots of matrix
  /// multiplications about the graph spectrum calculation"). Never use
  /// this outside runtime studies.
  kDensePowerNaive,
};

/// Seed of every backend's random start vector.
inline constexpr std::uint64_t kFiedlerSeed = 0x5eed;

struct FiedlerOptions {
  EigenBackend backend = EigenBackend::kLanczos;
  double tolerance = 1e-8;
  /// Nothing reads this field: every solve is serial. It stays
  /// declared only because perfbench/ still sets it.
  parallel::ThreadPool* pool = nullptr;
  /// Work bound of the power backends. With it and Lanczos's restart
  /// ceiling (linalg::kLanczosMaxSubspace) every backend terminates no
  /// matter how ill-conditioned the graph is — the solve may come back
  /// with converged = false, but it always comes back (the offloader's
  /// degrade-don't-die chain relies on that).
  std::size_t max_iterations = 20000;
};

struct FiedlerResult {
  double value = 0.0;       ///< λ₂ (algebraic connectivity).
  linalg::Vec vector;       ///< unit-norm Fiedler vector.
  bool converged = false;
  std::size_t matvec_count = 0;
};

/// Compute the Fiedler pair of `g`'s Laplacian.
///
/// Preconditions: `g` is connected with at least 2 nodes (callers split
/// at component boundaries first — exactly what the pipeline does).
[[nodiscard]] FiedlerResult fiedler_pair(const graph::WeightedGraph& g,
                                         const FiedlerOptions& options = {});

}  // namespace mecoff::spectral
