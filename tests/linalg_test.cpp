// Unit tests for src/linalg: vector ops, dense/sparse matrices, the
// Laplacian (including the paper's Theorem 2 identity), and CG.
#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "linalg/dense_matrix.hpp"
#include "linalg/laplacian.hpp"
#include "linalg/sparse_matrix.hpp"
#include "linalg/vector_ops.hpp"

namespace mecoff::linalg {
namespace {

TEST(VectorOps, DotAndNorm) {
  const Vec x{3.0, 4.0};
  EXPECT_DOUBLE_EQ(dot(x, x), 25.0);
  EXPECT_DOUBLE_EQ(norm2(x), 5.0);
}

TEST(VectorOps, DotSizeMismatchThrows) {
  const Vec x{1.0};
  const Vec y{1.0, 2.0};
  EXPECT_THROW((void)dot(x, y), mecoff::PreconditionError);
}

TEST(VectorOps, Axpy) {
  const Vec x{1.0, 2.0};
  Vec y{10.0, 20.0};
  axpy(3.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 13.0);
  EXPECT_DOUBLE_EQ(y[1], 26.0);
}

TEST(VectorOps, NormalizeMakesUnitAndReturnsNorm) {
  Vec x{0.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(normalize(x), 5.0);
  EXPECT_NEAR(norm2(x), 1.0, 1e-15);
}

TEST(VectorOps, NormalizeZeroThrows) {
  Vec x{0.0, 0.0};
  EXPECT_THROW(normalize(x), mecoff::PreconditionError);
}

TEST(VectorOps, DeflateRemovesComponent) {
  Vec d{1.0, 0.0};
  Vec x{5.0, 7.0};
  deflate(x, d);
  EXPECT_DOUBLE_EQ(x[0], 0.0);
  EXPECT_DOUBLE_EQ(x[1], 7.0);
}

TEST(VectorOps, ConstantUnitIsUnitNorm) {
  const Vec c = constant_unit(16);
  EXPECT_NEAR(norm2(c), 1.0, 1e-15);
  EXPECT_DOUBLE_EQ(c[0], c[15]);
}

TEST(DenseMatrix, MultiplyVector) {
  DenseMatrix m(2, 3);
  m(0, 0) = 1;
  m(0, 1) = 2;
  m(0, 2) = 3;
  m(1, 2) = 4;
  const Vec y = m.multiply(Vec{1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 4.0);
}

TEST(DenseMatrix, MultiplyMatrix) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  const DenseMatrix c = a.multiply(a);
  EXPECT_DOUBLE_EQ(c(0, 0), 7.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 10.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 15.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 22.0);
}

TEST(DenseMatrix, TransposeAndSymmetry) {
  DenseMatrix m(2, 2);
  m(0, 1) = 5;
  EXPECT_DOUBLE_EQ(m.symmetry_error(), 5.0);
  const DenseMatrix t = m.transposed();
  EXPECT_DOUBLE_EQ(t(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(t(0, 1), 0.0);
}

TEST(SparseMatrix, FromTripletsMergesDuplicates) {
  const SparseMatrix m = SparseMatrix::from_triplets(
      2, 2, {{0, 1, 2.0}, {0, 1, 3.0}, {1, 0, 1.0}});
  EXPECT_EQ(m.nonzeros(), 2u);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
}

TEST(SparseMatrix, MultiplyMatchesDense) {
  Rng rng(99);
  const std::size_t n = 24;
  std::vector<Triplet> triplets;
  DenseMatrix dense(n, n);
  for (int k = 0; k < 120; ++k) {
    const std::size_t r = rng.index(n);
    const std::size_t c = rng.index(n);
    const double v = rng.uniform(-2.0, 2.0);
    triplets.push_back({r, c, v});
    dense(r, c) += v;
  }
  const SparseMatrix sparse = SparseMatrix::from_triplets(n, n, triplets);
  Vec x(n);
  for (double& e : x) e = rng.uniform(-1.0, 1.0);
  const Vec ys = sparse.multiply(x);
  const Vec yd = dense.multiply(x);
  EXPECT_LT(max_abs_diff(ys, yd), 1e-12);
}

TEST(SparseMatrix, MultiplyRowsSubrange) {
  const SparseMatrix m = SparseMatrix::from_triplets(
      3, 3, {{0, 0, 1.0}, {1, 1, 2.0}, {2, 2, 3.0}});
  Vec y(3, -1.0);
  m.multiply_rows(Vec{1.0, 1.0, 1.0}, y, 1, 3);
  EXPECT_DOUBLE_EQ(y[0], -1.0);  // untouched
  EXPECT_DOUBLE_EQ(y[1], 2.0);
  EXPECT_DOUBLE_EQ(y[2], 3.0);
}

TEST(SparseMatrix, GershgorinBoundsSpectralRadius) {
  // Laplacian of K4 (unit weights): λ_max = 4; bound = 2·deg = 6.
  const SparseMatrix lap = laplacian(graph::complete_graph(4));
  EXPECT_GE(lap.gershgorin_bound(), 4.0);
  EXPECT_DOUBLE_EQ(lap.gershgorin_bound(), 6.0);
}

TEST(Laplacian, RowsSumToZero) {
  const SparseMatrix lap =
      laplacian(graph::barbell_graph(4, 2.0, 7.0));
  for (std::size_t r = 0; r < lap.rows(); ++r)
    EXPECT_NEAR(lap.row_sum(r), 0.0, 1e-12);
}

TEST(Laplacian, MatchesDenseVersion) {
  const graph::WeightedGraph g = graph::cycle_graph(6, 1.0, 2.5);
  const SparseMatrix sparse = laplacian(g);
  const DenseMatrix dense = dense_laplacian(g);
  for (std::size_t r = 0; r < 6; ++r)
    for (std::size_t c = 0; c < 6; ++c)
      EXPECT_NEAR(sparse.at(r, c), dense(r, c), 1e-12);
  EXPECT_DOUBLE_EQ(dense.symmetry_error(), 0.0);
}

TEST(Laplacian, AnnihilatesConstantVector) {
  const graph::WeightedGraph g = graph::grid_graph(3, 3);
  const SparseMatrix lap = laplacian(g);
  const Vec ones(9, 1.0);
  const Vec y = lap.multiply(ones);
  for (const double v : y) EXPECT_NEAR(v, 0.0, 1e-12);
}

// Theorem 2 of the paper: with q ∈ {+1,−1}ⁿ and d1=1, d2=−1,
// CUT(G1, G2) = qᵀ L q / (d1−d2)² = qᵀ L q / 4.
TEST(Laplacian, Theorem2CutIdentity) {
  Rng rng(7);
  graph::NetgenParams p;
  p.nodes = 60;
  p.edges = 220;
  p.seed = 42;
  const graph::WeightedGraph g = graph::netgen_style(p);
  for (int trial = 0; trial < 10; ++trial) {
    Vec q(g.num_nodes());
    std::vector<std::uint8_t> side(g.num_nodes());
    for (std::size_t i = 0; i < q.size(); ++i) {
      side[i] = rng.bernoulli(0.5) ? 1 : 0;
      q[i] = side[i] == 1 ? 1.0 : -1.0;
    }
    const double qlq = laplacian_quadratic_form(g, q);
    EXPECT_NEAR(qlq / 4.0, graph::cut_weight(g, side),
                1e-9 * (1.0 + qlq));
  }
}

TEST(Laplacian, QuadraticFormMatchesExplicitMultiply) {
  const graph::WeightedGraph g = graph::barbell_graph(5, 1.5, 4.0);
  const SparseMatrix lap = laplacian(g);
  Rng rng(3);
  Vec q(g.num_nodes());
  for (double& v : q) v = rng.uniform(-2.0, 2.0);
  const Vec lq = lap.multiply(q);
  EXPECT_NEAR(laplacian_quadratic_form(g, q), dot(q, lq), 1e-9);
}

}  // namespace
}  // namespace mecoff::linalg
