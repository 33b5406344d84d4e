// Unit tests for src/linalg: vector ops, sparse matrices (the CSR SpMV
// every eigensolve runs is held to its storage-order sum by an exact
// oracle) and the Laplacian (including the paper's Theorem 2 identity),
// plus the dense-matrix helpers of tests/testlib the oracles build on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "linalg/dense_matrix.hpp"
#include "linalg/laplacian.hpp"
#include "linalg/sparse_matrix.hpp"
#include "linalg/vector_ops.hpp"
#include "testlib/linalg_oracles.hpp"
#include "testlib/test_graphs.hpp"

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
  const Vec y = multiply(m, Vec{1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 4.0);
}

TEST(DenseMatrix, MultiplyMatrix) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  const DenseMatrix c = multiply(a, a);
  EXPECT_DOUBLE_EQ(c(0, 0), 7.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 10.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 15.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 22.0);
}

TEST(DenseMatrix, TransposeAndSymmetry) {
  DenseMatrix m(2, 2);
  m(0, 1) = 5;
  EXPECT_DOUBLE_EQ(symmetry_error(m), 5.0);
  const DenseMatrix t = transposed(m);
  EXPECT_DOUBLE_EQ(t(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(t(0, 1), 0.0);
}

TEST(SparseMatrix, FromTripletsMergesDuplicates) {
  const SparseMatrix m = SparseMatrix::from_triplets(
      2, 2, {{0, 1, 2.0}, {0, 1, 3.0}, {1, 0, 1.0}});
  EXPECT_EQ(m.nonzeros(), 2u);
  // Column 1 of m is m·e₁, column 0 is m·e₀.
  Vec y(2);
  m.multiply_into(Vec{0.0, 1.0}, y);
  EXPECT_DOUBLE_EQ(y[0], 5.0);
  EXPECT_DOUBLE_EQ(y[1], 0.0);
  m.multiply_into(Vec{1.0, 0.0}, y);
  EXPECT_DOUBLE_EQ(y[0], 0.0);
  EXPECT_DOUBLE_EQ(y[1], 1.0);
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
  Vec ys(n);
  sparse.multiply_into(x, ys);
  const Vec yd = multiply(dense, x);
  EXPECT_LT(max_abs_diff(ys, yd), 1e-12);
}

/// Random CSR with UNIQUE (row, col) coordinates, so from_triplets'
/// unstable duplicate-merge order cannot perturb bits and the in-test
/// oracle can reconstruct the exact storage order (row-major, columns
/// ascending). `dense_row` (if < rows) gets every column; other rows
/// are Bernoulli-filled, leaving some empty at low density.
SparseMatrix random_csr(std::size_t rows, std::size_t cols, double density,
                        std::uint64_t seed, std::size_t dense_row = SIZE_MAX) {
  Rng rng(seed);
  std::vector<Triplet> triplets;
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      if (r == dense_row || rng.bernoulli(density))
        triplets.push_back({r, c, rng.uniform(-2.0, 2.0)});
  return SparseMatrix::from_triplets(rows, cols, std::move(triplets));
}

/// The same unique triplets, reassembled independently of SparseMatrix:
/// per row, columns ascending (CSR storage order for unique coords).
std::vector<std::vector<std::pair<std::size_t, double>>> oracle_rows(
    std::size_t rows, std::size_t cols, double density, std::uint64_t seed,
    std::size_t dense_row = SIZE_MAX) {
  Rng rng(seed);
  std::vector<std::vector<std::pair<std::size_t, double>>> out(rows);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      if (r == dense_row || rng.bernoulli(density))
        out[r].emplace_back(c, rng.uniform(-2.0, 2.0));
  return out;
}

Vec random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Vec v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

TEST(SparseMatrix, MultiplySumsEachRowInStorageOrder) {
  // Edge shapes: the empty matrix, single rows, empty rows (low
  // density), an all-dense row, and a tall matrix with both.
  const struct {
    std::size_t rows, cols;
    double density;
    std::size_t dense_row;
  } cases[] = {
      {0, 0, 0.5, SIZE_MAX},   {1, 1, 1.0, SIZE_MAX},
      {1, 7, 0.6, SIZE_MAX},   {5, 5, 0.08, SIZE_MAX},
      {17, 9, 0.3, 3},         {50, 50, 0.25, 8},
      {130, 40, 0.05, 77},
  };
  std::size_t empty_rows = 0;
  std::size_t dense_rows = 0;
  std::uint64_t seed = 0x5eed0;
  for (const auto& c : cases) {
    for (std::uint64_t rep = 0; rep < 3; ++rep) {
      ++seed;
      const SparseMatrix m =
          random_csr(c.rows, c.cols, c.density, seed, c.dense_row);
      const auto rows = oracle_rows(c.rows, c.cols, c.density, seed,
                                    c.dense_row);
      const Vec x = random_vec(c.cols, seed ^ 0xabc);
      Vec y(c.rows, -7.0);  // every row must be overwritten
      m.multiply_into(x, y);
      for (std::size_t r = 0; r < c.rows; ++r) {
        if (rows[r].empty()) ++empty_rows;
        if (rows[r].size() == c.cols && c.cols > 1) ++dense_rows;
        double sum = 0.0;
        for (const auto& [col, v] : rows[r]) sum += v * x[col];
        // EXPECT_EQ on doubles: the contract is exact bit equality.
        EXPECT_EQ(y[r], sum) << "rows=" << c.rows << " cols=" << c.cols
                             << " row=" << r << " seed=" << seed;
      }
    }
  }
  // The shapes above must really produce both kinds of edge row.
  EXPECT_GT(empty_rows, 0u);
  EXPECT_GT(dense_rows, 0u);
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
  const Vec ones(lap.cols(), 1.0);
  Vec row_sums(lap.rows());
  lap.multiply_into(ones, row_sums);
  for (const double sum : row_sums) EXPECT_NEAR(sum, 0.0, 1e-12);
}

TEST(Laplacian, MatchesDenseVersion) {
  const graph::WeightedGraph g = graph::cycle_graph(6, 1.0, 2.5);
  const SparseMatrix sparse = laplacian(g);
  const DenseMatrix dense = dense_laplacian(g);
  // Column c of the sparse Laplacian is L·e_c.
  Vec unit(6, 0.0);
  Vec column(6);
  for (std::size_t c = 0; c < 6; ++c) {
    unit[c] = 1.0;
    sparse.multiply_into(unit, column);
    unit[c] = 0.0;
    for (std::size_t r = 0; r < 6; ++r)
      EXPECT_NEAR(column[r], dense(r, c), 1e-12);
  }
  EXPECT_DOUBLE_EQ(symmetry_error(dense), 0.0);
}

TEST(Laplacian, AnnihilatesConstantVector) {
  const graph::WeightedGraph g = graph::grid_graph(3, 3);
  const SparseMatrix lap = laplacian(g);
  const Vec ones(9, 1.0);
  Vec y(9);
  lap.multiply_into(ones, y);
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
  Vec lq(q.size());
  lap.multiply_into(q, lq);
  EXPECT_NEAR(laplacian_quadratic_form(g, q), dot(q, lq), 1e-9);
}

}  // namespace
}  // namespace mecoff::linalg
