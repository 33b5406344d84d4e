// Lanczos iteration with full reorthogonalization for the smallest
// eigenpairs of a symmetric operator. This is the paper's "graph
// spectrum calculation": the Fiedler pair (λ₂, v₂) of each compressed
// sub-graph Laplacian. The operator is abstracted so a caller can pick
// the SpMV kernel (see SpmvKernel).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "linalg/sparse_matrix.hpp"
#include "linalg/vector_ops.hpp"

namespace mecoff::linalg {

/// A symmetric linear operator y = A·x of dimension `dim`.
struct LinearOperator {
  std::size_t dim = 0;
  std::function<void(std::span<const double> x, std::span<double> y)> apply;
};

/// Serial CSR-backed operator. `kernel` selects the SpMV summation
/// order (see SpmvKernel); kNaive replays the seed bit-for-bit.
[[nodiscard]] LinearOperator make_operator(
    const SparseMatrix& matrix, SpmvKernel kernel = SpmvKernel::kNaive);

struct EigenPair {
  double value = 0.0;
  Vec vector;
};

struct LanczosOptions {
  /// Number of smallest eigenpairs wanted (after deflation).
  std::size_t num_pairs = 1;
  /// Residual tolerance, relative to the operator's norm estimate.
  double tolerance = 1e-8;
  /// Initial Krylov subspace size (0 = auto). Grows geometrically on
  /// restart up to `max_subspace`. This is the restart knob: a sweep
  /// whose residual misses tolerance is retried with a doubled
  /// subspace, so even a tiny initial size (1) terminates and
  /// converges — it just restarts more.
  std::size_t initial_subspace = 0;
  std::size_t max_subspace = 400;
  /// Unit-norm directions to project out of the iteration (e.g. the
  /// constant null vector of a connected Laplacian).
  std::vector<Vec> deflate;
  /// Warm start: when non-empty, the first Krylov vector is this
  /// vector (projected against `deflate` and normalized) instead of a
  /// random draw. Seeding with an approximate eigenvector — e.g. the
  /// previous Fiedler vector of a slightly perturbed Laplacian — lets
  /// a small `initial_subspace` converge without restarts, which is
  /// the incremental re-solve fast path. Must have size == op.dim
  /// (PreconditionError otherwise); a vector lying in the deflation
  /// span degrades gracefully to the random start.
  Vec initial_vector;
  std::uint64_t seed = 0x5eed;
};

struct LanczosResult {
  std::vector<EigenPair> pairs;  ///< Ascending by eigenvalue.
  bool converged = false;
  std::size_t matvec_count = 0;
  double max_residual = 0.0;  ///< ‖A v − λ v‖ over returned pairs.
};

/// Smallest `options.num_pairs` eigenpairs of `op` restricted to the
/// orthogonal complement of `options.deflate`.
///
/// Robust to tiny problems: if the effective dimension is smaller than
/// the requested pair count, fewer pairs are returned.
[[nodiscard]] LanczosResult lanczos_smallest(const LinearOperator& op,
                                             const LanczosOptions& options);

}  // namespace mecoff::linalg
