// Lanczos iteration with full reorthogonalization for the smallest
// eigenpairs of a symmetric operator. This is the paper's "graph
// spectrum calculation": the Fiedler pair (λ₂, v₂) of each compressed
// sub-graph Laplacian. The operator is a matvec callback, shared with
// the power-iteration backends (power_iteration.hpp).
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

/// Serial CSR-backed operator (SparseMatrix::multiply_into).
[[nodiscard]] LinearOperator make_operator(const SparseMatrix& matrix);

struct EigenPair {
  double value = 0.0;
  Vec vector;
};

/// Restart ceiling. The first sweep builds a Krylov basis of
/// min(n, max(2k + 28, 36)) vectors, for n = op.dim and k the pairs
/// wanted; a sweep whose residual misses tolerance is retried from the
/// same start vector with the basis doubled, capped at
/// min(n, kLanczosMaxSubspace).
inline constexpr std::size_t kLanczosMaxSubspace = 400;

struct LanczosOptions {
  /// Number of smallest eigenpairs wanted (after deflation).
  std::size_t num_pairs = 1;
  /// Residual tolerance, relative to the operator's norm estimate.
  double tolerance = 1e-8;
  /// Unit-norm directions to project out of the iteration (e.g. the
  /// constant null vector of a connected Laplacian).
  std::vector<Vec> deflate;
  /// Seed of the random first Krylov vector (drawn orthogonal to
  /// `deflate`).
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
