// Fiedler pair (λ₂, v₂) of a weighted graph Laplacian — the quantity
// Theorem 1 of the paper ties to the minimum cut. λ₂ is the algebraic
// connectivity; the signs of v₂'s entries define the spectral
// bipartition.
//
// Two solver backends:
//  * Lanczos (default): restarted Lanczos with full reorthogonalization
//    on L with the constant null vector deflated;
//  * shifted power iteration: dominant pair of (c·I − L) after the same
//    deflation — simpler, slower; kept for the eigensolver ablation and
//    as an independent oracle in tests.
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

struct FiedlerOptions {
  EigenBackend backend = EigenBackend::kLanczos;
  double tolerance = 1e-8;
  /// Nothing reads this field: every solve is serial. It stays
  /// declared only because perfbench/ still sets it.
  parallel::ThreadPool* pool = nullptr;
  /// SpMV summation order (linalg::SpmvKernel). kNaive replays the
  /// seed's bits exactly; kBlocked is the tiled 4-wide hot-path kernel
  /// whose low-order bits differ (see sparse_matrix.hpp).
  linalg::SpmvKernel spmv_kernel = linalg::SpmvKernel::kNaive;
  std::uint64_t seed = 0x5eed;
  /// Work bounds: every backend terminates within these no matter how
  /// ill-conditioned the graph is — the solve may come back with
  /// converged = false, but it always comes back (the offloader's
  /// degrade-don't-die chain relies on that).
  std::size_t max_subspace = 400;      ///< Lanczos restart ceiling
  std::size_t max_iterations = 20000;  ///< power-iteration ceiling
  /// Warm start (Lanczos backend only): an approximate Fiedler vector
  /// of a nearby Laplacian — e.g. the previous solve's vector after a
  /// small edge-weight or channel perturbation. Not owned; must
  /// outlive the call; must have size == g.num_nodes()
  /// (PreconditionError otherwise). The Krylov subspace starts at
  /// `warm_subspace` instead of the cold default, so a good seed
  /// converges in a fraction of the cold matvec budget; a bad seed
  /// merely restarts like a cold solve. Power backends ignore it.
  const linalg::Vec* warm_start = nullptr;
  std::size_t warm_subspace = 10;
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
