#include "linalg/dense_matrix.hpp"

#include "common/contracts.hpp"

namespace mecoff::linalg {

DenseMatrix::DenseMatrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

double& DenseMatrix::operator()(std::size_t r, std::size_t c) {
  MECOFF_EXPECTS(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

double DenseMatrix::operator()(std::size_t r, std::size_t c) const {
  MECOFF_EXPECTS(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

std::span<const double> DenseMatrix::row(std::size_t r) const {
  MECOFF_EXPECTS(r < rows_);
  return {data_.data() + r * cols_, cols_};
}

}  // namespace mecoff::linalg
