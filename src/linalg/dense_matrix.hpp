// Row-major dense matrix. Used for small compressed sub-graph
// Laplacians (after compression, graphs shrink by ~90%, so dense
// fallbacks are affordable) and inside the Lanczos basis bookkeeping.
#pragma once

#include <span>
#include <vector>

#include "linalg/vector_ops.hpp"

namespace mecoff::linalg {

class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c);
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const;

  /// Row view.
  [[nodiscard]] std::span<const double> row(std::size_t r) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace mecoff::linalg
