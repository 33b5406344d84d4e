#include "linalg/sparse_matrix.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"

namespace mecoff::linalg {

SparseMatrix SparseMatrix::from_triplets(std::size_t rows, std::size_t cols,
                                         std::vector<Triplet> triplets) {
  for (const Triplet& t : triplets) {
    MECOFF_EXPECTS(t.row < rows && t.col < cols);
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });

  SparseMatrix m;
  m.cols_ = cols;
  m.row_offsets_.assign(rows + 1, 0);
  m.col_indices_.reserve(triplets.size());
  m.values_.reserve(triplets.size());

  std::size_t i = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    while (i < triplets.size() && triplets[i].row == r) {
      const std::size_t c = triplets[i].col;
      double sum = 0.0;
      while (i < triplets.size() && triplets[i].row == r &&
             triplets[i].col == c) {
        sum += triplets[i].value;
        ++i;
      }
      m.col_indices_.push_back(c);
      m.values_.push_back(sum);
    }
    m.row_offsets_[r + 1] = m.col_indices_.size();
  }
  return m;
}

void SparseMatrix::multiply_into(std::span<const double> x,
                                 std::span<double> y) const {
  MECOFF_EXPECTS(x.size() == cols_);
  MECOFF_EXPECTS(y.size() == rows());
  for (std::size_t r = 0; r < rows(); ++r) {
    double sum = 0.0;
    for (std::size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k)
      sum += values_[k] * x[col_indices_[k]];
    y[r] = sum;
  }
}

double SparseMatrix::gershgorin_bound() const {
  double bound = 0.0;
  for (std::size_t r = 0; r < rows(); ++r) {
    double abs_sum = 0.0;
    for (std::size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k)
      abs_sum += std::abs(values_[k]);
    bound = std::max(bound, abs_sum);
  }
  return bound;
}

}  // namespace mecoff::linalg
