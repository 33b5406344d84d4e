// Tests for the Jacobi dense eigensolver, plus its use as an
// independent oracle against Lanczos and the Fiedler pipeline.
#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "linalg/lanczos.hpp"
#include "linalg/laplacian.hpp"
#include "spectral/fiedler.hpp"
#include "testlib/linalg_oracles.hpp"

namespace mecoff::linalg {
namespace {

TEST(Jacobi, EmptyAndOneByOne) {
  EXPECT_TRUE(jacobi_eigen(DenseMatrix(0, 0)).converged);
  DenseMatrix one(1, 1);
  one(0, 0) = 4.5;
  const JacobiResult r = jacobi_eigen(one);
  ASSERT_TRUE(r.converged);
  EXPECT_DOUBLE_EQ(r.values[0], 4.5);
}

TEST(Jacobi, TwoByTwoAnalytic) {
  DenseMatrix m(2, 2);
  m(0, 0) = 2;
  m(1, 1) = 2;
  m(0, 1) = m(1, 0) = 1;
  const JacobiResult r = jacobi_eigen(m);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.values[0], 1.0, 1e-12);
  EXPECT_NEAR(r.values[1], 3.0, 1e-12);
}

TEST(Jacobi, DiagonalMatrixIsSorted) {
  DenseMatrix m(3, 3);
  m(0, 0) = 5;
  m(1, 1) = -2;
  m(2, 2) = 1;
  const JacobiResult r = jacobi_eigen(m);
  EXPECT_NEAR(r.values[0], -2.0, 1e-12);
  EXPECT_NEAR(r.values[2], 5.0, 1e-12);
  EXPECT_EQ(r.sweeps, 0u);  // already diagonal
}

TEST(Jacobi, EigenpairsSatisfyDefinition) {
  Rng rng(42);
  const std::size_t n = 12;
  DenseMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j)
      m(i, j) = m(j, i) = rng.uniform(-2.0, 2.0);
  const JacobiResult r = jacobi_eigen(m);
  ASSERT_TRUE(r.converged);
  for (std::size_t j = 0; j < n; ++j) {
    Vec v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = r.vectors(i, j);
    const Vec mv = multiply(m, v);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(mv[i], r.values[j] * v[i], 1e-9);
  }
}

TEST(Jacobi, EigenvectorsOrthonormal) {
  Rng rng(7);
  const std::size_t n = 10;
  DenseMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j)
      m(i, j) = m(j, i) = rng.uniform(-1.0, 1.0);
  const JacobiResult r = jacobi_eigen(m);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a; b < n; ++b) {
      double d = 0;
      for (std::size_t i = 0; i < n; ++i)
        d += r.vectors(i, a) * r.vectors(i, b);
      EXPECT_NEAR(d, a == b ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(Jacobi, TraceAndEigenvalueSumAgree) {
  Rng rng(13);
  const std::size_t n = 15;
  DenseMatrix m(n, n);
  double trace = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j)
      m(i, j) = m(j, i) = rng.uniform(-3.0, 3.0);
    trace += m(i, i);
  }
  const JacobiResult r = jacobi_eigen(m);
  double sum = 0;
  for (const double v : r.values) sum += v;
  EXPECT_NEAR(sum, trace, 1e-9);
}

TEST(Jacobi, RejectsAsymmetricInput) {
  DenseMatrix m(2, 2);
  m(0, 1) = 1.0;  // m(1,0) left 0
  EXPECT_THROW(jacobi_eigen(m), mecoff::PreconditionError);
}

TEST(Jacobi, LaplacianSpectrumMatchesLanczosSmallest) {
  // Oracle check on an arbitrary clustered graph: Jacobi's λ₂ must
  // match the Lanczos Fiedler value.
  graph::NetgenParams p;
  p.nodes = 60;
  p.edges = 220;
  p.components = 1;
  p.seed = 99;
  const graph::WeightedGraph g = graph::netgen_style(p);
  const JacobiResult full = jacobi_eigen(dense_laplacian(g));
  ASSERT_TRUE(full.converged);
  EXPECT_NEAR(full.values[0], 0.0, 1e-8);  // null vector

  const spectral::FiedlerResult fiedler = spectral::fiedler_pair(g);
  ASSERT_TRUE(fiedler.converged);
  EXPECT_NEAR(fiedler.value, full.values[1],
              1e-6 * (1.0 + full.values[1]));
}

TEST(Jacobi, ZeroEigenvalueMultiplicityCountsComponents) {
  // Two components → λ₁ = λ₂ = 0.
  graph::GraphBuilder b;
  for (int i = 0; i < 6; ++i) b.add_node(1.0);
  b.add_edge(0, 1, 2.0);
  b.add_edge(1, 2, 2.0);
  b.add_edge(3, 4, 2.0);
  b.add_edge(4, 5, 2.0);
  const JacobiResult r = jacobi_eigen(dense_laplacian(b.build()));
  EXPECT_NEAR(r.values[0], 0.0, 1e-10);
  EXPECT_NEAR(r.values[1], 0.0, 1e-10);
  EXPECT_GT(r.values[2], 1e-6);
}

}  // namespace
}  // namespace mecoff::linalg
