#include "linalg/vector_ops.hpp"

#include <cmath>

#include "common/contracts.hpp"

namespace mecoff::linalg {

double dot(std::span<const double> x, std::span<const double> y) {
  MECOFF_EXPECTS(x.size() == y.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) sum += x[i] * y[i];
  return sum;
}

double norm2(std::span<const double> x) { return std::sqrt(dot(x, x)); }

void axpy(double a, std::span<const double> x, std::span<double> y) {
  MECOFF_EXPECTS(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += a * x[i];
}

void scale(std::span<double> x, double a) {
  for (double& v : x) v *= a;
}

void deflate(std::span<double> x, std::span<const double> d) {
  const double c = dot(x, d);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] -= c * d[i];
}

double max_abs_diff(std::span<const double> x, std::span<const double> y) {
  MECOFF_EXPECTS(x.size() == y.size());
  double m = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i)
    m = std::max(m, std::abs(x[i] - y[i]));
  return m;
}

Vec constant_unit(std::size_t n) {
  MECOFF_EXPECTS(n > 0);
  return Vec(n, 1.0 / std::sqrt(static_cast<double>(n)));
}

}  // namespace mecoff::linalg
