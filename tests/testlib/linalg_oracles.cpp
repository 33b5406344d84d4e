#include "testlib/linalg_oracles.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/contracts.hpp"

namespace mecoff::linalg {

Vec multiply(const DenseMatrix& a, std::span<const double> x) {
  MECOFF_EXPECTS(x.size() == a.cols());
  Vec y(a.rows(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c) y[r] += a(r, c) * x[c];
  return y;
}

DenseMatrix multiply(const DenseMatrix& a, const DenseMatrix& b) {
  MECOFF_EXPECTS(a.cols() == b.rows());
  DenseMatrix out(a.rows(), b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double ark = a(r, k);
      if (ark == 0.0) continue;
      for (std::size_t c = 0; c < b.cols(); ++c) out(r, c) += ark * b(k, c);
    }
  }
  return out;
}

DenseMatrix transposed(const DenseMatrix& a) {
  DenseMatrix out(a.cols(), a.rows());
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c) out(c, r) = a(r, c);
  return out;
}

double symmetry_error(const DenseMatrix& a) {
  MECOFF_EXPECTS(a.rows() == a.cols());
  double err = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = r + 1; c < a.cols(); ++c)
      err = std::max(err, std::abs(a(r, c) - a(c, r)));
  return err;
}

namespace {

/// Frobenius norm of the strict upper triangle.
double off_diagonal_norm(const DenseMatrix& a) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = i + 1; j < a.cols(); ++j)
      sum += a(i, j) * a(i, j);
  return std::sqrt(2.0 * sum);
}

double frobenius_norm(const DenseMatrix& a) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) sum += a(i, j) * a(i, j);
  return std::sqrt(sum);
}

}  // namespace

JacobiResult jacobi_eigen(const DenseMatrix& a, const JacobiOptions& options) {
  MECOFF_EXPECTS(a.rows() == a.cols());
  MECOFF_EXPECTS(symmetry_error(a) <= 1e-9 * (1.0 + frobenius_norm(a)));
  const std::size_t n = a.rows();

  JacobiResult out;
  if (n == 0) {
    out.converged = true;
    return out;
  }

  DenseMatrix m = a;  // working copy, driven to diagonal
  DenseMatrix v(n, n);
  for (std::size_t i = 0; i < n; ++i) v(i, i) = 1.0;

  const double scale = std::max(frobenius_norm(a), 1e-300);
  for (std::size_t sweep = 0; sweep < options.max_sweeps; ++sweep) {
    if (off_diagonal_norm(m) <= options.tolerance * scale) {
      out.converged = true;
      break;
    }
    out.sweeps = sweep + 1;
    // One cyclic sweep over the strict upper triangle.
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = m(p, q);
        if (std::abs(apq) <= 1e-300) continue;
        // Rotation angle that annihilates m(p, q).
        const double theta = (m(q, q) - m(p, p)) / (2.0 * apq);
        const double t = std::copysign(
            1.0 / (std::abs(theta) + std::sqrt(theta * theta + 1.0)),
            theta);
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        // A ← Jᵀ A J applied to rows/columns p and q.
        for (std::size_t k = 0; k < n; ++k) {
          const double akp = m(k, p);
          const double akq = m(k, q);
          m(k, p) = c * akp - s * akq;
          m(k, q) = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = m(p, k);
          const double aqk = m(q, k);
          m(p, k) = c * apk - s * aqk;
          m(q, k) = s * apk + c * aqk;
        }
        // Accumulate the rotation.
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }
  if (off_diagonal_norm(m) <= options.tolerance * scale)
    out.converged = true;

  // Sort ascending, permuting eigenvector columns alongside.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return m(x, x) < m(y, y);
  });
  out.values.resize(n);
  out.vectors = DenseMatrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    out.values[j] = m(order[j], order[j]);
    for (std::size_t i = 0; i < n; ++i) out.vectors(i, j) = v(i, order[j]);
  }
  return out;
}

double laplacian_quadratic_form(const graph::WeightedGraph& g,
                                std::span<const double> q) {
  MECOFF_EXPECTS(q.size() == g.num_nodes());
  double sum = 0.0;
  for (const graph::Edge& e : g.edges()) {
    const double d = q[e.u] - q[e.v];
    sum += e.weight * d * d;
  }
  return sum;
}

}  // namespace mecoff::linalg
