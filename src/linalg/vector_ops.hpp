// BLAS-1 style operations on std::vector<double>. The eigensolvers are
// built from these; keeping them free functions keeps call sites close
// to the math they implement.
#pragma once

#include <span>
#include <vector>

namespace mecoff::linalg {

using Vec = std::vector<double>;

/// <x, y>. Requires equal sizes.
[[nodiscard]] double dot(std::span<const double> x, std::span<const double> y);

/// ‖x‖₂.
[[nodiscard]] double norm2(std::span<const double> x);

/// y += a·x.
void axpy(double a, std::span<const double> x, std::span<double> y);

/// x *= a.
void scale(std::span<double> x, double a);

/// Remove the component of x along the (unit) direction d: x -= <x,d>·d.
void deflate(std::span<double> x, std::span<const double> d);

/// max_i |x_i - y_i|.
[[nodiscard]] double max_abs_diff(std::span<const double> x,
                                  std::span<const double> y);

/// Constant unit vector (1/√n, ..., 1/√n) — the Laplacian's null vector
/// on a connected graph.
[[nodiscard]] Vec constant_unit(std::size_t n);

}  // namespace mecoff::linalg
