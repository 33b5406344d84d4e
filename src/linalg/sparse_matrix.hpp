// Compressed-sparse-row matrix. Graph Laplacians at the paper's scales
// (up to 5000 nodes, ~40k edges) are extremely sparse; CSR SpMV is the
// workhorse of the Lanczos solver, and multiply_into is its one kernel
// (tests read entries and row sums through it too). It always runs
// serially: the pipeline parallelizes across sub-graphs, never inside
// one matvec.
#pragma once

#include <span>
#include <vector>

#include "linalg/vector_ops.hpp"

namespace mecoff::linalg {

struct Triplet {
  std::size_t row;
  std::size_t col;
  double value;
};

class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Build an rows×cols CSR matrix; duplicate (row, col) entries are
  /// summed, explicit zeros are kept (harmless).
  static SparseMatrix from_triplets(std::size_t rows, std::size_t cols,
                                    std::vector<Triplet> triplets);

  [[nodiscard]] std::size_t rows() const { return row_offsets_.empty()
        ? 0 : row_offsets_.size() - 1; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t nonzeros() const { return values_.size(); }

  /// y = A·x into preallocated y (no allocation; hot path). Each row
  /// is one sequential accumulator summing strictly in CSR storage
  /// order; every golden fixture and bench baseline is pinned to that
  /// order.
  void multiply_into(std::span<const double> x, std::span<double> y) const;

  /// Gershgorin upper bound on the spectral radius of a symmetric
  /// matrix: max_r Σ_c |A(r,c)|.
  [[nodiscard]] double gershgorin_bound() const;

 private:
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_offsets_;  // size rows+1
  std::vector<std::size_t> col_indices_;
  std::vector<double> values_;
};

}  // namespace mecoff::linalg
