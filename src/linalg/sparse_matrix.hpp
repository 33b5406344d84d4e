// Compressed-sparse-row matrix. Graph Laplacians at the paper's scales
// (up to 5000 nodes, ~40k edges) are extremely sparse; CSR SpMV is the
// workhorse of the Lanczos solver. It always runs serially: the
// pipeline parallelizes across sub-graphs, never inside one matvec.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/vector_ops.hpp"

namespace mecoff::linalg {

struct Triplet {
  std::size_t row;
  std::size_t col;
  double value;
};

/// SpMV kernel selection. kNaive is the seed kernel: one sequential
/// accumulator per row, summing strictly in CSR storage order — the
/// bit-compatible fallback every golden fixture and committed bench
/// baseline was produced with. kBlocked is the hot-path kernel: rows
/// are walked in tiles of kSpmvRowBlock and each row's nonzeros are
/// accumulated 4-wide. Its summation order differs from kNaive, so the
/// two kernels agree only to rounding — callers that need bit-stable
/// replays of old fixtures keep kNaive (the default everywhere).
///
/// The blocked kernel's summation order is part of its contract
/// (tests/resolve_test.cpp holds an exact-equality oracle to it):
///   lane j accumulates entries k0 + 4i + j over the full quads of the
///   row (j = 0..3), the lanes combine as (a0 + a1) + (a2 + a3), and
///   the <= 3 tail entries are then added left to right.
enum class SpmvKernel : std::uint8_t { kNaive = 0, kBlocked = 1 };

/// Outer row-tile of the blocked kernel. Rows are independent, so the
/// tile only shapes traversal locality; results are identical for any
/// tile size.
inline constexpr std::size_t kSpmvRowBlock = 64;

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

  /// y = A·x (serial).
  [[nodiscard]] Vec multiply(std::span<const double> x) const;

  /// y = A·x into preallocated y (no allocation; hot path).
  void multiply_into(std::span<const double> x, std::span<double> y,
                     SpmvKernel kernel = SpmvKernel::kNaive) const;

  /// Rows [begin, end) of y = A·x. Rows are computed independently,
  /// so any [begin, end) chunking of the same kernel is bit-identical
  /// to one full-range call.
  void multiply_rows(std::span<const double> x, std::span<double> y,
                     std::size_t begin, std::size_t end,
                     SpmvKernel kernel = SpmvKernel::kNaive) const;

  /// Entry lookup, O(row nnz). Mostly for tests.
  [[nodiscard]] double at(std::size_t r, std::size_t c) const;

  /// Σ of a row's values (for Laplacian row-sum checks).
  [[nodiscard]] double row_sum(std::size_t r) const;

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
