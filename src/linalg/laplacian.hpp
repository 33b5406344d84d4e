// Weighted graph Laplacian L = D − W, the object at the heart of the
// paper's Theorems 1–3: for an indicator q ∈ {+1, −1}ⁿ,
//   qᵀ L q = Σ_{(a,b)∈E} s(a,b)·(q_a − q_b)² = 4·CUT,
// so minimizing the cut relaxes to the second-smallest eigenpair of L.
#pragma once

#include "graph/weighted_graph.hpp"
#include "linalg/dense_matrix.hpp"
#include "linalg/sparse_matrix.hpp"

namespace mecoff::linalg {

/// Sparse combinatorial Laplacian of `g` (edge weights, not node weights).
[[nodiscard]] SparseMatrix laplacian(const graph::WeightedGraph& g);

/// Dense Laplacian (for small graphs / tests).
[[nodiscard]] DenseMatrix dense_laplacian(const graph::WeightedGraph& g);

}  // namespace mecoff::linalg
