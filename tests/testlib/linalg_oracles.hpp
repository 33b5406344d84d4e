// Reference linear algebra for the test suites: the cyclic Jacobi
// eigensolver (the dense oracle the Lanczos, Fiedler and property suites
// compare against), the dense-matrix products it and the tests need, and
// the edge-sum form of qᵀ L q behind the Theorem 2 tests. The shipped
// eigensolvers are Lanczos and QL on the tridiagonal (linalg/).
#pragma once

#include <span>

#include "graph/weighted_graph.hpp"
#include "linalg/dense_matrix.hpp"
#include "linalg/vector_ops.hpp"

namespace mecoff::linalg {

/// y = A·x. Requires x.size() == a.cols().
[[nodiscard]] Vec multiply(const DenseMatrix& a, std::span<const double> x);

/// C = A·B. Requires a.cols() == b.rows().
[[nodiscard]] DenseMatrix multiply(const DenseMatrix& a, const DenseMatrix& b);

[[nodiscard]] DenseMatrix transposed(const DenseMatrix& a);

/// max |A(i,j) - A(j,i)| over the upper triangle. Requires a square A.
[[nodiscard]] double symmetry_error(const DenseMatrix& a);

struct JacobiResult {
  /// Eigenvalues in ascending order.
  Vec values;
  /// Column j of `vectors` is the (unit) eigenvector for values[j].
  DenseMatrix vectors;
  std::size_t sweeps = 0;
  bool converged = false;
};

struct JacobiOptions {
  /// Stop when the off-diagonal Frobenius norm falls below
  /// tolerance · ‖A‖_F.
  double tolerance = 1e-12;
  std::size_t max_sweeps = 64;
};

/// Full eigendecomposition of the symmetric matrix `a` by cyclic Jacobi
/// rotations: O(n³) per sweep and unconditionally robust. Not for large
/// n. Precondition: a is square and numerically symmetric.
[[nodiscard]] JacobiResult jacobi_eigen(const DenseMatrix& a,
                                        const JacobiOptions& options = {});

/// qᵀ L q computed directly from the graph in O(E) without forming L.
[[nodiscard]] double laplacian_quadratic_form(const graph::WeightedGraph& g,
                                              std::span<const double> q);

}  // namespace mecoff::linalg
