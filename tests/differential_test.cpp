// Differential tests against a brute-force min-cut oracle
// (ctest label: differential).
//
// Every connected weighted graph on n <= 8 nodes that the enumerated
// seed grid produces is cut three ways:
//
//   1. exhaustively — all 2^(n-1) - 1 bipartitions with node 0 pinned
//      to side 0 (W*, the true minimum cut weight),
//   2. by Stoer–Wagner (must EQUAL W*: it is an exact algorithm), and
//   3. by the spectral sweep bipartitioner (must land within the
//      paper's spectral approximation guarantee of W*).
//
// The spectral guarantee is checked in its sharp form. With λ₂ the
// algebraic connectivity (computed exactly here by the cyclic-Jacobi
// oracle on the dense Laplacian) and Δ the maximum weighted degree,
// Mohar's isoperimetric inequality certifies that the best sweep cut
// of the Fiedler ordering has weight
//
//     W_sweep ≤ sqrt(λ₂ (2Δ − λ₂)) · n / 2,
//
// and the bipartitioner's sweep split returns the cut-weight minimum
// over all thresholds, so it inherits the bound. The matching lower bound
// W* ≥ λ₂ |S||S̄| / n (Fiedler) pins the oracle's λ₂ from the other
// side, so a wrong eigenvalue cannot silently satisfy both.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "graph/components.hpp"
#include "graph/partition.hpp"
#include "graph/weighted_graph.hpp"
#include "linalg/laplacian.hpp"
#include "mincut/stoer_wagner.hpp"
#include "spectral/bipartitioner.hpp"
#include "testlib/linalg_oracles.hpp"

namespace mecoff {
namespace {

struct SmallGraphCase {
  std::size_t nodes;
  std::uint64_t seed;
  double extra_edge_probability;  ///< density on top of the spanning tree
};

/// The enumerated grid: every node count 2..8 crossed with ten seeds at
/// two densities (sparse trees-plus-a-little and near-complete).
std::vector<SmallGraphCase> small_graph_cases() {
  std::vector<SmallGraphCase> cases;
  for (std::size_t n = 2; n <= 8; ++n)
    for (std::uint64_t seed = 0; seed < 10; ++seed)
      for (const double p : {0.25, 0.9})
        cases.push_back(SmallGraphCase{n, seed * 7919 + n, p});
  return cases;
}

/// Connected by construction: a random spanning tree (node i attaches
/// to a random earlier node) plus Bernoulli extra edges. Weights are
/// uniform in [0.5, 3.0] so no cut is degenerate.
graph::WeightedGraph make_connected_graph(const SmallGraphCase& c) {
  Rng rng(c.seed ^ 0xd1ffe4e7);
  graph::GraphBuilder builder;
  for (std::size_t v = 0; v < c.nodes; ++v) builder.add_node(1.0);
  for (std::size_t v = 1; v < c.nodes; ++v) {
    const auto parent = static_cast<graph::NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(v) - 1));
    builder.add_edge(static_cast<graph::NodeId>(v), parent,
                     rng.uniform(0.5, 3.0));
  }
  for (std::size_t u = 0; u < c.nodes; ++u)
    for (std::size_t v = u + 1; v < c.nodes; ++v)
      if (rng.bernoulli(c.extra_edge_probability))
        builder.add_edge(static_cast<graph::NodeId>(u),
                         static_cast<graph::NodeId>(v),
                         rng.uniform(0.5, 3.0));
  return builder.build();
}

struct BruteForceCut {
  double weight = 0.0;
  std::vector<std::uint8_t> side;
};

/// Exact minimum cut: node 0 is pinned to side 0 (bipartitions are
/// unordered), every non-empty mask over nodes 1..n-1 is a candidate.
BruteForceCut brute_force_min_cut(const graph::WeightedGraph& g) {
  const std::size_t n = g.num_nodes();
  BruteForceCut best;
  std::vector<std::uint8_t> side(n, 0);
  bool have_best = false;
  for (std::uint32_t mask = 1; mask < (1u << (n - 1)); ++mask) {
    for (std::size_t v = 1; v < n; ++v)
      side[v] = (mask >> (v - 1)) & 1u;
    const double w = graph::cut_weight(g, side);
    if (!have_best || w < best.weight) {
      best.weight = w;
      best.side = side;
      have_best = true;
    }
  }
  return best;
}

/// Exact λ₂ from the dense Laplacian via the cyclic-Jacobi oracle.
double exact_lambda2(const graph::WeightedGraph& g) {
  const linalg::JacobiResult eig =
      linalg::jacobi_eigen(linalg::dense_laplacian(g));
  EXPECT_TRUE(eig.converged);
  EXPECT_GE(eig.values.size(), 2u);
  return eig.values[1];
}

double max_weighted_degree(const graph::WeightedGraph& g) {
  double max_degree = 0.0;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    double degree = 0.0;
    for (const graph::Adjacency& adj : g.neighbors(v)) degree += adj.weight;
    max_degree = std::max(max_degree, degree);
  }
  return max_degree;
}

class SmallGraphDifferential
    : public ::testing::TestWithParam<SmallGraphCase> {};

TEST_P(SmallGraphDifferential, StoerWagnerEqualsBruteForce) {
  const graph::WeightedGraph g = make_connected_graph(GetParam());
  const BruteForceCut oracle = brute_force_min_cut(g);
  const graph::Bipartition sw = mincut::stoer_wagner(g);
  EXPECT_NEAR(sw.cut_weight, oracle.weight, 1e-9 * (1.0 + oracle.weight));
  // The reported side vector must actually realize the reported weight.
  EXPECT_NEAR(graph::cut_weight(g, sw.side), sw.cut_weight,
              1e-9 * (1.0 + sw.cut_weight));
}

TEST_P(SmallGraphDifferential, SpectralSweepWithinPaperBoundOfBruteForce) {
  const graph::WeightedGraph g = make_connected_graph(GetParam());
  ASSERT_EQ(graph::connected_components(g).count, 1u);
  const std::size_t n = g.num_nodes();

  const BruteForceCut oracle = brute_force_min_cut(g);
  const double lambda2 = exact_lambda2(g);
  ASSERT_GT(lambda2, 0.0);  // connected ⇒ positive algebraic connectivity

  spectral::SpectralBipartitioner bipartitioner;
  const graph::Bipartition spec = bipartitioner.bipartition(g);
  ASSERT_TRUE(bipartitioner.last_converged());
  // λ₂ as the iterative solver saw it agrees with the Jacobi oracle.
  EXPECT_NEAR(bipartitioner.last_fiedler_value(), lambda2,
              1e-6 * (1.0 + lambda2));

  // A minimum is a minimum: the spectral cut can never beat the oracle.
  EXPECT_GE(spec.cut_weight, oracle.weight - 1e-9 * (1.0 + oracle.weight));

  if (n == 2) {
    // Exactly one bipartition exists, so spectral IS the optimum.
    EXPECT_NEAR(spec.cut_weight, oracle.weight,
                1e-9 * (1.0 + oracle.weight));
  } else if (n >= 4) {
    // Mohar sweep-cut upper bound (the paper's approximation
    // guarantee). Mohar's theorem excludes K₁, K₂ and K₃ — on K₃ the
    // bound is genuinely false — so it is asserted from n = 4 up; the
    // n = 3 cases are covered by the oracle sandwich above/below.
    const double delta = max_weighted_degree(g);
    const double slack = 2.0 * delta - lambda2;  // ≥ 0 by Gershgorin
    EXPECT_GE(slack, -1e-9 * (1.0 + delta));
    const double mohar = std::sqrt(std::max(0.0, lambda2 * slack)) *
                         static_cast<double>(n) / 2.0;
    EXPECT_LE(spec.cut_weight, mohar * (1.0 + 1e-9) + 1e-9)
        << "n=" << n << " λ₂=" << lambda2 << " Δ=" << delta;
  }

  // Fiedler lower bound on the optimum, with the optimum's own sizes.
  std::size_t side1 = 0;
  for (const std::uint8_t s : oracle.side) side1 += s;
  const double fiedler_lower = lambda2 *
                               static_cast<double>(side1) *
                               static_cast<double>(n - side1) /
                               static_cast<double>(n);
  EXPECT_GE(oracle.weight, fiedler_lower - 1e-9 * (1.0 + fiedler_lower));
}

INSTANTIATE_TEST_SUITE_P(
    AllSmallGraphs, SmallGraphDifferential,
    ::testing::ValuesIn(small_graph_cases()),
    [](const ::testing::TestParamInfo<SmallGraphCase>& param_info) {
      std::string name(1, 'n');
      name += std::to_string(param_info.param.nodes);
      name += "_s";
      name += std::to_string(param_info.param.seed);
      name += param_info.param.extra_edge_probability > 0.5 ? "_dense"
                                                            : "_sparse";
      return name;
    });

}  // namespace
}  // namespace mecoff
