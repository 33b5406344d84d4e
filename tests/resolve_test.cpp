// Incremental re-solve differential suite (ctest label: resolve).
//
// The warm-start stack, layer by layer:
//
//   kernel   the CSR SpMV every eigensolve runs is held to its
//            storage-order summation by an independent oracle — EXACT
//            double equality, at the edge shapes (empty matrix, one
//            row, empty rows, a dense row);
//   solver   Lanczos/Fiedler warm starts converge to the same pair
//            with fewer matvecs, reject wrong-dimension vectors with a
//            typed error, and degrade (never fail) on degenerate
//            seeds;
//   pipeline warm-projected greedy starts never end above the cold
//            objective, across edge-weight jitter, edge add/remove and
//            channel drift.
//
// Everything observes return values and stats structs only, so the
// suite runs identically with and without TSAN (suite names carry the
// Resolve prefix the sanitize workflow's -R regex matches).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "graph/weighted_graph.hpp"
#include "linalg/lanczos.hpp"
#include "linalg/laplacian.hpp"
#include "linalg/sparse_matrix.hpp"
#include "linalg/vector_ops.hpp"
#include "mec/costs.hpp"
#include "mec/model.hpp"
#include "mec/offloader.hpp"
#include "mec/scheme.hpp"
#include "spectral/fiedler.hpp"

namespace mecoff {
namespace {

// ---- shared generators ----------------------------------------------------

/// Random CSR with UNIQUE (row, col) coordinates, so from_triplets'
/// unstable duplicate-merge order cannot perturb bits and the in-test
/// oracle can reconstruct the exact storage order (row-major, columns
/// ascending). `dense_row` (if < rows) gets every column; other rows
/// are Bernoulli-filled, leaving some empty at low density.
linalg::SparseMatrix random_csr(std::size_t rows, std::size_t cols,
                                double density, std::uint64_t seed,
                                std::size_t dense_row = SIZE_MAX) {
  Rng rng(seed);
  std::vector<linalg::Triplet> triplets;
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      if (r == dense_row || rng.bernoulli(density))
        triplets.push_back({r, c, rng.uniform(-2.0, 2.0)});
  return linalg::SparseMatrix::from_triplets(rows, cols, std::move(triplets));
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

linalg::Vec random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  linalg::Vec v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

/// The differential_test.cpp seeded-graph family: a random spanning
/// tree plus Bernoulli extra edges, weights in [0.5, 3.0] — connected
/// by construction, no degenerate cuts.
graph::WeightedGraph make_connected_graph(std::size_t nodes,
                                          std::uint64_t seed,
                                          double extra_edge_probability) {
  Rng rng(seed ^ 0xd1ffe4e7);
  graph::GraphBuilder builder;
  for (std::size_t v = 0; v < nodes; ++v) builder.add_node(1.0);
  for (std::size_t v = 1; v < nodes; ++v) {
    const auto parent = static_cast<graph::NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(v) - 1));
    builder.add_edge(static_cast<graph::NodeId>(v), parent,
                     rng.uniform(0.5, 3.0));
  }
  for (std::size_t u = 0; u < nodes; ++u)
    for (std::size_t v = u + 1; v < nodes; ++v)
      if (rng.bernoulli(extra_edge_probability))
        builder.add_edge(static_cast<graph::NodeId>(u),
                         static_cast<graph::NodeId>(v),
                         rng.uniform(0.5, 3.0));
  return builder.build();
}

mec::MecSystem make_system(graph::WeightedGraph g) {
  mec::MecSystem system;
  mec::UserApp user;
  user.graph = std::move(g);
  system.users.push_back(std::move(user));
  return system;
}

/// Rebuild `g` with every node weight kept and edge weights multiplied
/// by (1 + jitter), jitter uniform in [-magnitude, magnitude].
graph::WeightedGraph jitter_edge_weights(const graph::WeightedGraph& g,
                                         std::uint64_t seed,
                                         double magnitude) {
  Rng rng(seed);
  graph::GraphBuilder builder;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v)
    builder.add_node(g.node_weight(v));
  for (const graph::Edge& e : g.edges())
    builder.add_edge(e.u, e.v,
                     e.weight * (1.0 + rng.uniform(-magnitude, magnitude)));
  return builder.build();
}

/// Rebuild `g` dropping the edge at index `drop` (mod edge count).
graph::WeightedGraph remove_one_edge(const graph::WeightedGraph& g,
                                     std::size_t drop) {
  graph::GraphBuilder builder;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v)
    builder.add_node(g.node_weight(v));
  const auto edges = g.edges();
  drop %= edges.size();
  for (std::size_t i = 0; i < edges.size(); ++i)
    if (i != drop) builder.add_edge(edges[i].u, edges[i].v, edges[i].weight);
  return builder.build();
}

/// Rebuild `g` with one extra edge between the first non-adjacent node
/// pair (falls back to a parallel-free duplicate-weight bump if the
/// graph is complete — n <= 8 grids rarely are).
graph::WeightedGraph add_one_edge(const graph::WeightedGraph& g) {
  std::map<std::pair<graph::NodeId, graph::NodeId>, bool> present;
  for (const graph::Edge& e : g.edges())
    present[{std::min(e.u, e.v), std::max(e.u, e.v)}] = true;
  graph::GraphBuilder builder;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v)
    builder.add_node(g.node_weight(v));
  for (const graph::Edge& e : g.edges())
    builder.add_edge(e.u, e.v, e.weight);
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u)
    for (graph::NodeId v = u + 1; v < g.num_nodes(); ++v)
      if (!present.count({u, v})) {
        builder.add_edge(u, v, 1.25);
        return builder.build();
      }
  return builder.build();
}

struct ColdSolve {
  mec::OffloadingScheme scheme;
  mec::PipelineOffloader::SolveArtifacts artifacts;
  double objective = 0.0;
};

ColdSolve cold_solve(const mec::MecSystem& system) {
  mec::PipelineOptions options;
  options.collect_fiedler_vectors = true;
  mec::PipelineOffloader offloader(options);
  ColdSolve out;
  out.scheme = offloader.solve(system);
  out.artifacts = offloader.last_artifacts();
  out.objective = mec::evaluate(system, out.scheme).objective();
  return out;
}

struct WarmSolve {
  mec::OffloadingScheme scheme;
  mec::PipelineOffloader::SolveStats stats;
  double objective = 0.0;
};

WarmSolve warm_solve(const mec::MecSystem& system,
                     const mec::PipelineOffloader::WarmStart& warm) {
  mec::PipelineOptions options;
  options.collect_fiedler_vectors = true;
  mec::PipelineOffloader offloader(options);
  WarmSolve out;
  out.scheme = offloader.solve(system, &warm);
  out.stats = offloader.last_stats();
  out.objective = mec::evaluate(system, out.scheme).objective();
  return out;
}

// ---- storage-order SpMV ---------------------------------------------------

TEST(ResolveSpmvTest, MultiplySumsEachRowInStorageOrder) {
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
      const linalg::SparseMatrix m =
          random_csr(c.rows, c.cols, c.density, seed, c.dense_row);
      const auto rows = oracle_rows(c.rows, c.cols, c.density, seed,
                                    c.dense_row);
      const linalg::Vec x = random_vec(c.cols, seed ^ 0xabc);
      linalg::Vec y(c.rows, -7.0);  // every row must be overwritten
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

// ---- Lanczos / Fiedler warm starts ----------------------------------------

TEST(ResolveLanczosTest, WarmStartConvergesWithFewerMatvecs) {
  const graph::WeightedGraph g = make_connected_graph(60, 11, 0.08);
  const linalg::SparseMatrix lap = linalg::laplacian(g);
  const linalg::LinearOperator op = linalg::make_operator(lap);
  linalg::LanczosOptions cold_opt;
  cold_opt.deflate = {linalg::constant_unit(g.num_nodes())};
  const linalg::LanczosResult cold = linalg::lanczos_smallest(op, cold_opt);
  ASSERT_TRUE(cold.converged);
  ASSERT_FALSE(cold.pairs.empty());

  linalg::LanczosOptions warm_opt = cold_opt;
  warm_opt.initial_vector = cold.pairs.front().vector;
  warm_opt.initial_subspace = 8;
  const linalg::LanczosResult warm = linalg::lanczos_smallest(op, warm_opt);
  ASSERT_TRUE(warm.converged);
  EXPECT_NEAR(warm.pairs.front().value, cold.pairs.front().value, 1e-6);
  EXPECT_LT(warm.matvec_count, cold.matvec_count);
}

TEST(ResolveLanczosTest, WrongDimensionWarmVectorIsTypedError) {
  const graph::WeightedGraph g = make_connected_graph(12, 3, 0.3);
  const linalg::SparseMatrix lap = linalg::laplacian(g);
  const linalg::LinearOperator op = linalg::make_operator(lap);
  linalg::LanczosOptions options;
  options.deflate = {linalg::constant_unit(g.num_nodes())};
  options.initial_vector.assign(g.num_nodes() + 1, 1.0);
  EXPECT_THROW((void)linalg::lanczos_smallest(op, options),
               PreconditionError);
  options.initial_vector.assign(3, 1.0);
  EXPECT_THROW((void)linalg::lanczos_smallest(op, options),
               PreconditionError);
}

TEST(ResolveLanczosTest, DeflationSpanWarmVectorDegradesToRandomStart) {
  const graph::WeightedGraph g = make_connected_graph(20, 5, 0.25);
  const linalg::SparseMatrix lap = linalg::laplacian(g);
  const linalg::LinearOperator op = linalg::make_operator(lap);
  linalg::LanczosOptions cold_opt;
  cold_opt.deflate = {linalg::constant_unit(g.num_nodes())};
  const linalg::LanczosResult cold = linalg::lanczos_smallest(op, cold_opt);
  ASSERT_TRUE(cold.converged);

  // A constant vector lies exactly in the deflation span: the warm
  // start must degrade to the seeded random draw, not fail.
  linalg::LanczosOptions warm_opt = cold_opt;
  warm_opt.initial_vector.assign(g.num_nodes(), 0.7);
  const linalg::LanczosResult warm = linalg::lanczos_smallest(op, warm_opt);
  ASSERT_TRUE(warm.converged);
  EXPECT_NEAR(warm.pairs.front().value, cold.pairs.front().value, 1e-6);
}

TEST(ResolveLanczosTest, TinyInitialSubspaceRestartsToConvergence) {
  // Restart-knob regression: initial_subspace far below what the
  // spectrum needs must still converge by doubling, landing on the
  // same eigenvalue as the auto-sized cold solve.
  const graph::WeightedGraph g = make_connected_graph(40, 17, 0.15);
  const linalg::SparseMatrix lap = linalg::laplacian(g);
  const linalg::LinearOperator op = linalg::make_operator(lap);
  linalg::LanczosOptions auto_opt;
  auto_opt.deflate = {linalg::constant_unit(g.num_nodes())};
  const linalg::LanczosResult reference =
      linalg::lanczos_smallest(op, auto_opt);
  ASSERT_TRUE(reference.converged);

  linalg::LanczosOptions tiny_opt = auto_opt;
  tiny_opt.initial_subspace = 2;
  const linalg::LanczosResult tiny = linalg::lanczos_smallest(op, tiny_opt);
  ASSERT_TRUE(tiny.converged);
  EXPECT_NEAR(tiny.pairs.front().value, reference.pairs.front().value, 1e-6);
}

TEST(ResolveFiedlerTest, WarmStartSameValueFewerMatvecs) {
  const graph::WeightedGraph g = make_connected_graph(80, 23, 0.06);
  const spectral::FiedlerResult cold = spectral::fiedler_pair(g, {});
  ASSERT_TRUE(cold.converged);

  spectral::FiedlerOptions warm_options;
  warm_options.warm_start = &cold.vector;
  const spectral::FiedlerResult warm = spectral::fiedler_pair(g, warm_options);
  ASSERT_TRUE(warm.converged);
  EXPECT_NEAR(warm.value, cold.value, 1e-6);
  EXPECT_LT(warm.matvec_count, cold.matvec_count);
}

TEST(ResolveFiedlerTest, WrongDimensionWarmStartIsTypedError) {
  const graph::WeightedGraph g = make_connected_graph(10, 2, 0.4);
  const linalg::Vec wrong(g.num_nodes() + 3, 0.5);
  spectral::FiedlerOptions options;
  options.warm_start = &wrong;
  EXPECT_THROW((void)spectral::fiedler_pair(g, options), PreconditionError);
}

// ---- warm/cold offloader differential -------------------------------------

TEST(ResolveWarmTest, WarmProjectedGreedyNeverAboveColdFuzz) {
  // Property (over the differential grid's graph family): warm-starting
  // the greedy from ANY valid scheme terminates and never lands above
  // the cold objective — the solver keeps the better of the two starts
  // by construction, and with no warm Fiedler vectors the cuts are
  // bit-identical, making the comparison exact.
  for (std::size_t n = 3; n <= 8; ++n) {
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
      const mec::MecSystem system =
          make_system(make_connected_graph(n, seed * 7919 + n, 0.3));
      const ColdSolve cold = cold_solve(system);
      Rng rng(seed ^ 0xfaded);
      for (int rep = 0; rep < 4; ++rep) {
        mec::PipelineOffloader::WarmStart warm;
        warm.scheme = mec::OffloadingScheme::all_local(system);
        for (auto& p : warm.scheme.placement[0])
          if (rng.bernoulli(0.5)) p = mec::Placement::kRemote;
        const WarmSolve result = warm_solve(system, warm);
        ASSERT_TRUE(result.scheme.valid_for(system));
        EXPECT_LE(result.objective, cold.objective)
            << "n=" << n << " seed=" << seed << " rep=" << rep;
        EXPECT_TRUE(result.stats.warm_start_used);
      }
    }
  }
}

TEST(ResolveWarmTest, ZeroDeltaWarmSolveIsByteIdenticalToCold) {
  // Re-solving the SAME system with its own artifacts must return the
  // cold scheme bit for bit: ties between the warm-projected and cold
  // greedy starts go to cold, and the warm-seeded eigensolve converges
  // to the same cut.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const mec::MecSystem system =
        make_system(make_connected_graph(7, seed * 131 + 7, 0.35));
    const ColdSolve cold = cold_solve(system);
    mec::PipelineOffloader::WarmStart warm;
    warm.scheme = cold.scheme;
    warm.fiedler_vectors = cold.artifacts.fiedler_vectors;
    const WarmSolve result = warm_solve(system, warm);
    EXPECT_TRUE(result.scheme == cold.scheme) << "seed=" << seed;
    EXPECT_GE(result.stats.warm_fiedler_seeded, 1u);
  }
}

TEST(ResolveWarmTest, DifferentialEdgeWeightJitter) {
  for (std::size_t n = 4; n <= 8; ++n) {
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
      const graph::WeightedGraph base =
          make_connected_graph(n, seed * 7919 + n, 0.4);
      const mec::MecSystem before = make_system(base);
      const ColdSolve prior = cold_solve(before);

      const mec::MecSystem after =
          make_system(jitter_edge_weights(base, seed ^ 0x1177, 0.05));
      mec::PipelineOffloader::WarmStart warm;
      warm.scheme = prior.scheme;
      warm.fiedler_vectors = prior.artifacts.fiedler_vectors;
      const WarmSolve warm_result = warm_solve(after, warm);
      const ColdSolve cold_result = cold_solve(after);

      ASSERT_TRUE(warm_result.scheme.valid_for(after));
      EXPECT_LE(warm_result.objective, cold_result.objective)
          << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(ResolveWarmTest, DifferentialSingleEdgeAddRemove) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const graph::WeightedGraph base =
        make_connected_graph(7, seed * 271 + 5, 0.45);
    const mec::MecSystem before = make_system(base);
    const ColdSolve prior = cold_solve(before);
    mec::PipelineOffloader::WarmStart warm;
    warm.scheme = prior.scheme;
    warm.fiedler_vectors = prior.artifacts.fiedler_vectors;

    // Removal may disconnect or reshape compression: warm vectors are
    // then rejected per component, never UB; the scheme stays valid
    // and never above the cold objective.
    const mec::MecSystem removed = make_system(remove_one_edge(base, seed));
    const WarmSolve warm_removed = warm_solve(removed, warm);
    const ColdSolve cold_removed = cold_solve(removed);
    ASSERT_TRUE(warm_removed.scheme.valid_for(removed));
    EXPECT_LE(warm_removed.objective, cold_removed.objective)
        << "remove seed=" << seed;

    const mec::MecSystem added = make_system(add_one_edge(base));
    const WarmSolve warm_added = warm_solve(added, warm);
    const ColdSolve cold_added = cold_solve(added);
    ASSERT_TRUE(warm_added.scheme.valid_for(added));
    EXPECT_LE(warm_added.objective, cold_added.objective)
        << "add seed=" << seed;
  }
}

TEST(ResolveWarmTest, DifferentialChannelDrift) {
  // Per-user channel drift: the graph is untouched, so every warm
  // Fiedler vector still fits and the cuts are identical — only the
  // greedy re-prices. Warm ≤ cold is exact here.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const graph::WeightedGraph base =
        make_connected_graph(8, seed * 577 + 3, 0.3);
    const mec::MecSystem before = make_system(base);
    const ColdSolve prior = cold_solve(before);

    mec::MecSystem after = make_system(base);
    Rng rng(seed ^ 0xc4a);
    after.params.bandwidth *= rng.uniform(0.6, 1.4);
    after.params.transmit_power *= rng.uniform(0.8, 1.2);

    mec::PipelineOffloader::WarmStart warm;
    warm.scheme = prior.scheme;
    warm.fiedler_vectors = prior.artifacts.fiedler_vectors;
    const WarmSolve warm_result = warm_solve(after, warm);
    const ColdSolve cold_result = cold_solve(after);
    ASSERT_TRUE(warm_result.scheme.valid_for(after));
    EXPECT_LE(warm_result.objective, cold_result.objective)
        << "seed=" << seed;
    EXPECT_EQ(warm_result.stats.warm_fiedler_rejected, 0u);
  }
}

TEST(ResolveWarmTest, WrongShapeWarmVectorsRejectedNotUB) {
  const mec::MecSystem system = make_system(make_connected_graph(8, 9, 0.4));
  const ColdSolve cold = cold_solve(system);
  mec::PipelineOffloader::WarmStart warm;
  warm.scheme = cold.scheme;
  // Deliberately wrong-dimension vectors for every component.
  warm.fiedler_vectors = {{linalg::Vec(999, 0.5), linalg::Vec(3, 0.5)}};
  const WarmSolve result = warm_solve(system, warm);
  ASSERT_TRUE(result.scheme.valid_for(system));
  EXPECT_LE(result.objective, cold.objective);
  EXPECT_GE(result.stats.warm_fiedler_rejected, 1u);
  EXPECT_EQ(result.stats.warm_fiedler_seeded, 0u);
}

}  // namespace
}  // namespace mecoff
