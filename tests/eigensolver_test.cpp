// Eigensolver tests: tridiagonal QL against analytic spectra, Lanczos
// and shifted power iteration against known graph Laplacian eigenvalues
// (path: λ_k = 2−2cos(kπ/n); cycle: 2−2cos(2πk/n); K_n: λ₂ = n).
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "graph/generators.hpp"
#include "linalg/lanczos.hpp"
#include "linalg/laplacian.hpp"
#include "linalg/power_iteration.hpp"
#include "linalg/tridiagonal.hpp"
#include "testlib/test_graphs.hpp"

namespace mecoff::linalg {
namespace {

TEST(Tridiagonal, OneByOne) {
  const TridiagonalEigen e = tridiagonal_eigen({7.0}, {});
  ASSERT_EQ(e.values.size(), 1u);
  EXPECT_DOUBLE_EQ(e.values[0], 7.0);
  EXPECT_DOUBLE_EQ(e.vectors(0, 0), 1.0);
}

TEST(Tridiagonal, TwoByTwoAnalytic) {
  // [[2, 1], [1, 2]] → eigenvalues 1 and 3.
  const TridiagonalEigen e = tridiagonal_eigen({2.0, 2.0}, {1.0});
  ASSERT_EQ(e.values.size(), 2u);
  EXPECT_NEAR(e.values[0], 1.0, 1e-12);
  EXPECT_NEAR(e.values[1], 3.0, 1e-12);
}

TEST(Tridiagonal, DiagonalMatrixSortsAscending) {
  const TridiagonalEigen e =
      tridiagonal_eigen({5.0, -1.0, 3.0}, {0.0, 0.0});
  EXPECT_NEAR(e.values[0], -1.0, 1e-12);
  EXPECT_NEAR(e.values[1], 3.0, 1e-12);
  EXPECT_NEAR(e.values[2], 5.0, 1e-12);
}

TEST(Tridiagonal, PathLaplacianSpectrum) {
  // Path graph Laplacian is tridiagonal: eigenvalues 2−2cos(kπ/n).
  const std::size_t n = 12;
  Vec diag(n, 2.0);
  diag.front() = diag.back() = 1.0;
  Vec off(n - 1, -1.0);
  const TridiagonalEigen e = tridiagonal_eigen(diag, off);
  for (std::size_t k = 0; k < n; ++k) {
    const double expected =
        2.0 - 2.0 * std::cos(std::numbers::pi * static_cast<double>(k) /
                             static_cast<double>(n));
    EXPECT_NEAR(e.values[k], expected, 1e-10);
  }
}

TEST(Tridiagonal, EigenpairsSatisfyDefinition) {
  const Vec diag{3.0, 1.0, 4.0, 1.0, 5.0};
  const Vec off{0.9, 0.2, 0.6, 0.3};
  const TridiagonalEigen e = tridiagonal_eigen(diag, off);
  for (std::size_t j = 0; j < diag.size(); ++j) {
    // T v = λ v, row by row.
    for (std::size_t i = 0; i < diag.size(); ++i) {
      double tv = diag[i] * e.vectors(i, j);
      if (i > 0) tv += off[i - 1] * e.vectors(i - 1, j);
      if (i + 1 < diag.size()) tv += off[i] * e.vectors(i + 1, j);
      EXPECT_NEAR(tv, e.values[j] * e.vectors(i, j), 1e-10);
    }
  }
}

TEST(Tridiagonal, EigenvectorsOrthonormal) {
  const Vec diag{1.0, 2.0, 3.0, 4.0};
  const Vec off{0.5, 0.5, 0.5};
  const TridiagonalEigen e = tridiagonal_eigen(diag, off);
  for (std::size_t a = 0; a < 4; ++a) {
    for (std::size_t b = 0; b < 4; ++b) {
      double d = 0;
      for (std::size_t i = 0; i < 4; ++i)
        d += e.vectors(i, a) * e.vectors(i, b);
      EXPECT_NEAR(d, a == b ? 1.0 : 0.0, 1e-10);
    }
  }
}

double analytic_path_lambda2(std::size_t n) {
  return 2.0 - 2.0 * std::cos(std::numbers::pi / static_cast<double>(n));
}

TEST(Lanczos, PathGraphFiedlerValue) {
  const std::size_t n = 30;
  const SparseMatrix lap = laplacian(graph::path_graph(n));
  LanczosOptions opts;
  opts.num_pairs = 1;
  opts.deflate = {constant_unit(n)};
  const LanczosResult r = lanczos_smallest(make_operator(lap), opts);
  ASSERT_TRUE(r.converged);
  ASSERT_EQ(r.pairs.size(), 1u);
  EXPECT_NEAR(r.pairs[0].value, analytic_path_lambda2(n), 1e-7);
}

TEST(Lanczos, CompleteGraphFiedlerValueIsN) {
  const std::size_t n = 15;
  const SparseMatrix lap = laplacian(graph::complete_graph(n));
  LanczosOptions opts;
  opts.deflate = {constant_unit(n)};
  const LanczosResult r = lanczos_smallest(make_operator(lap), opts);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.pairs[0].value, static_cast<double>(n), 1e-7);
}

TEST(Lanczos, CycleGraphFiedlerValue) {
  const std::size_t n = 24;
  const SparseMatrix lap = laplacian(graph::cycle_graph(n));
  LanczosOptions opts;
  opts.deflate = {constant_unit(n)};
  const LanczosResult r = lanczos_smallest(make_operator(lap), opts);
  ASSERT_TRUE(r.converged);
  const double expected =
      2.0 - 2.0 * std::cos(2.0 * std::numbers::pi / static_cast<double>(n));
  EXPECT_NEAR(r.pairs[0].value, expected, 1e-7);
}

TEST(Lanczos, ResidualIsSmall) {
  graph::NetgenParams p;
  p.nodes = 150;
  p.edges = 600;
  p.components = 1;
  p.seed = 77;
  const graph::WeightedGraph g = graph::netgen_style(p);
  const SparseMatrix lap = laplacian(g);
  LanczosOptions opts;
  opts.deflate = {constant_unit(g.num_nodes())};
  const LanczosResult r = lanczos_smallest(make_operator(lap), opts);
  ASSERT_TRUE(r.converged);
  // ‖L v − λ v‖ explicitly.
  const Vec& v = r.pairs[0].vector;
  Vec lv(v.size());
  lap.multiply_into(v, lv);
  axpy(-r.pairs[0].value, v, lv);
  // Remove null-space leakage before measuring.
  deflate(lv, constant_unit(g.num_nodes()));
  EXPECT_LT(norm2(lv), 1e-5 * lap.gershgorin_bound());
}

TEST(Lanczos, MultiplePairsAscending) {
  const std::size_t n = 20;
  const SparseMatrix lap = laplacian(graph::path_graph(n));
  LanczosOptions opts;
  opts.num_pairs = 3;
  opts.deflate = {constant_unit(n)};
  const LanczosResult r = lanczos_smallest(make_operator(lap), opts);
  ASSERT_TRUE(r.converged);
  ASSERT_EQ(r.pairs.size(), 3u);
  EXPECT_LE(r.pairs[0].value, r.pairs[1].value);
  EXPECT_LE(r.pairs[1].value, r.pairs[2].value);
  for (std::size_t k = 1; k <= 3; ++k) {
    const double expected =
        2.0 - 2.0 * std::cos(std::numbers::pi * static_cast<double>(k) /
                             static_cast<double>(n));
    EXPECT_NEAR(r.pairs[k - 1].value, expected, 1e-6);
  }
}

TEST(Lanczos, TinyGraphs) {
  // 2-node graph: deflating the constant leaves a 1-dim space.
  const SparseMatrix lap = laplacian(graph::path_graph(2, 1.0, 3.0));
  LanczosOptions opts;
  opts.deflate = {constant_unit(2)};
  const LanczosResult r = lanczos_smallest(make_operator(lap), opts);
  ASSERT_EQ(r.pairs.size(), 1u);
  EXPECT_NEAR(r.pairs[0].value, 6.0, 1e-9);  // λ₂ of weighted P2 = 2w
}

TEST(Lanczos, RequestMorePairsThanDimension) {
  const SparseMatrix lap = laplacian(graph::path_graph(3));
  LanczosOptions opts;
  opts.num_pairs = 10;
  opts.deflate = {constant_unit(3)};
  const LanczosResult r = lanczos_smallest(make_operator(lap), opts);
  EXPECT_LE(r.pairs.size(), 2u);  // only 2 non-deflated directions exist
}

TEST(Lanczos, RestartsWithDoubledSubspaceUntilConverged) {
  // λ₂ of a long path is tiny and crowded by λ₃, λ₄, …, so the first
  // sweep's 36-vector basis misses tolerance and the solve converges
  // only after restarting with the basis doubled. A single sweep costs
  // the norm probe, 36 basis matvecs and one residual matvec, so more
  // than 38 matvecs means the restart loop ran.
  const std::size_t n = 200;
  const SparseMatrix lap = laplacian(graph::path_graph(n));
  LanczosOptions opts;
  opts.deflate = {constant_unit(n)};
  const LanczosResult r = lanczos_smallest(make_operator(lap), opts);
  ASSERT_TRUE(r.converged);
  EXPECT_GT(r.matvec_count, 38u);
  EXPECT_NEAR(r.pairs[0].value, analytic_path_lambda2(n), 1e-7);
}

TEST(PowerIteration, DominantPairOfDiagonal) {
  const SparseMatrix m = SparseMatrix::from_triplets(
      3, 3, {{0, 0, 1.0}, {1, 1, 5.0}, {2, 2, 2.0}});
  const PowerResult r = power_dominant(make_operator(m), {});
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.pair.value, 5.0, 1e-6);
  EXPECT_NEAR(std::abs(r.pair.vector[1]), 1.0, 1e-4);
}

TEST(PowerIteration, ShiftedSmallestMatchesLanczos) {
  graph::NetgenParams p;
  p.nodes = 80;
  p.edges = 320;
  p.components = 1;
  p.seed = 5;
  const graph::WeightedGraph g = graph::netgen_style(p);
  const SparseMatrix lap = laplacian(g);
  const LinearOperator op = make_operator(lap);

  LanczosOptions lopts;
  lopts.deflate = {constant_unit(g.num_nodes())};
  const LanczosResult lr = lanczos_smallest(op, lopts);

  PowerOptions popts;
  popts.deflate = {constant_unit(g.num_nodes())};
  popts.max_iterations = 200000;
  popts.tolerance = 1e-10;
  const PowerResult pr =
      power_smallest_shifted(op, lap.gershgorin_bound(), popts);

  ASSERT_TRUE(lr.converged);
  EXPECT_NEAR(pr.pair.value, lr.pairs[0].value,
              1e-3 * (1.0 + lr.pairs[0].value));
}

TEST(PowerIteration, NullSpaceDetection) {
  // Without deflation the Laplacian's shifted power method converges to
  // eigenvalue 0 (the constant vector dominates c·I − L).
  const SparseMatrix lap = laplacian(graph::cycle_graph(6));
  const PowerResult r =
      power_smallest_shifted(make_operator(lap), lap.gershgorin_bound(), {});
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.pair.value, 0.0, 1e-6);
}

}  // namespace
}  // namespace mecoff::linalg
