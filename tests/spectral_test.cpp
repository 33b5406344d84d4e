// Unit tests for the spectral cut: Fiedler values against analytic
// spectra, sign/sweep splitting, and degenerate-input behavior.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>

#include "common/contracts.hpp"
#include "graph/generators.hpp"
#include "mincut/stoer_wagner.hpp"
#include "parallel/thread_pool.hpp"
#include "spectral/bipartitioner.hpp"
#include "spectral/fiedler.hpp"
#include "spectral/splitter.hpp"

namespace mecoff::spectral {
namespace {

using graph::Bipartition;
using graph::WeightedGraph;

TEST(Fiedler, PathGraphValue) {
  const std::size_t n = 16;
  const FiedlerResult r = fiedler_pair(graph::path_graph(n));
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.value,
              2.0 - 2.0 * std::cos(std::numbers::pi / static_cast<double>(n)),
              1e-7);
}

TEST(Fiedler, CompleteGraphValue) {
  const FiedlerResult r = fiedler_pair(graph::complete_graph(9));
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.value, 9.0, 1e-7);
}

TEST(Fiedler, VectorIsUnitAndOrthogonalToConstant) {
  const FiedlerResult r = fiedler_pair(graph::grid_graph(4, 5));
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(linalg::norm2(r.vector), 1.0, 1e-8);
  double sum = 0;
  for (const double v : r.vector) sum += v;
  EXPECT_NEAR(sum, 0.0, 1e-7);
}

TEST(Fiedler, EdgeWeightScalingScalesValue) {
  const FiedlerResult a = fiedler_pair(graph::cycle_graph(10, 1.0, 1.0));
  const FiedlerResult b = fiedler_pair(graph::cycle_graph(10, 1.0, 3.0));
  ASSERT_TRUE(a.converged && b.converged);
  EXPECT_NEAR(b.value, 3.0 * a.value, 1e-6);
}

TEST(Fiedler, BackendsAgree) {
  graph::NetgenParams p;
  p.nodes = 60;
  p.edges = 240;
  p.components = 1;
  p.seed = 3;
  const WeightedGraph g = graph::netgen_style(p);
  FiedlerOptions lanczos;
  FiedlerOptions power;
  power.backend = EigenBackend::kShiftedPower;
  power.tolerance = 1e-10;
  const FiedlerResult a = fiedler_pair(g, lanczos);
  const FiedlerResult b = fiedler_pair(g, power);
  EXPECT_NEAR(a.value, b.value, 1e-3 * (1.0 + a.value));
}

// FiedlerOptions::pool is no longer read (every eigensolve is serial);
// while the field exists, setting it must not change the result.
TEST(Fiedler, PoolBackendMatchesSerial) {
  graph::NetgenParams p;
  p.nodes = 120;
  p.edges = 500;
  p.components = 1;
  p.seed = 8;
  const WeightedGraph g = graph::netgen_style(p);
  const FiedlerResult serial = fiedler_pair(g);
  parallel::ThreadPool pool(3);
  FiedlerOptions opts;
  opts.pool = &pool;
  const FiedlerResult parallel_r = fiedler_pair(g, opts);
  EXPECT_NEAR(serial.value, parallel_r.value, 1e-7 * (1.0 + serial.value));
}

TEST(Fiedler, RequiresTwoNodes) {
  EXPECT_THROW(fiedler_pair(graph::path_graph(1)),
               mecoff::PreconditionError);
}

TEST(Splitter, SignSplitSeparatesBarbell) {
  const WeightedGraph g = graph::barbell_graph(5, 1.0, 10.0);
  const FiedlerResult f = fiedler_pair(g);
  const Bipartition cut = sign_split(g, f.vector);
  EXPECT_DOUBLE_EQ(cut.cut_weight, 1.0);  // the bridge
  EXPECT_EQ(cut.size(0), 5u);
  EXPECT_EQ(cut.size(1), 5u);
}

TEST(Splitter, SweepNeverWorseThanSign) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    graph::NetgenParams p;
    p.nodes = 80;
    p.edges = 300;
    p.components = 1;
    p.seed = seed;
    const WeightedGraph g = graph::netgen_style(p);
    const FiedlerResult f = fiedler_pair(g);
    const Bipartition sign = sign_split(g, f.vector);
    const Bipartition sweep = sweep_split(g, f.vector);
    EXPECT_LE(sweep.cut_weight, sign.cut_weight + 1e-9);
  }
}

TEST(Splitter, SweepFindsBridgeOnWeightedPath) {
  // Path with one light edge in the middle: the best threshold cut is
  // exactly that edge.
  graph::GraphBuilder b;
  for (int i = 0; i < 6; ++i) b.add_node(1.0);
  b.add_edge(0, 1, 9.0);
  b.add_edge(1, 2, 9.0);
  b.add_edge(2, 3, 0.5);
  b.add_edge(3, 4, 9.0);
  b.add_edge(4, 5, 9.0);
  const WeightedGraph g = b.build();
  const FiedlerResult f = fiedler_pair(g);
  const Bipartition cut = sweep_split(g, f.vector);
  EXPECT_NEAR(cut.cut_weight, 0.5, 1e-9);
}

TEST(Splitter, BothSidesNonEmptyOnSweep) {
  const WeightedGraph g = graph::complete_graph(7);
  const FiedlerResult f = fiedler_pair(g);
  const Bipartition cut = sweep_split(g, f.vector);
  EXPECT_GE(cut.size(0), 1u);
  EXPECT_GE(cut.size(1), 1u);
}

TEST(Splitter, SweepOnTinyGraphs) {
  const WeightedGraph g2 = graph::path_graph(2, 1.0, 4.0);
  const FiedlerResult f = fiedler_pair(g2);
  const Bipartition cut = sweep_split(g2, f.vector);
  EXPECT_DOUBLE_EQ(cut.cut_weight, 4.0);
  EXPECT_EQ(cut.size(0), 1u);
}

TEST(Bipartitioner, NearOptimalOnBarbell) {
  SpectralBipartitioner cutter;
  const WeightedGraph g = graph::barbell_graph(6, 2.0, 12.0);
  const Bipartition cut = cutter.bipartition(g);
  EXPECT_DOUBLE_EQ(cut.cut_weight, 2.0);
  EXPECT_GT(cutter.last_fiedler_value(), 0.0);
}

TEST(Bipartitioner, MatchesStoerWagnerOnClusteredGraphs) {
  // Spectral sweep should find the (unique, very light) cluster boundary
  // that Stoer–Wagner provably finds.
  SpectralBipartitioner cutter;
  for (const std::uint64_t seed : {11ULL, 12ULL, 13ULL}) {
    graph::NetgenParams p;
    p.nodes = 40;
    p.edges = 140;
    p.components = 1;
    p.cluster_size = 20;
    p.heavy_weight_multiplier = 20.0;
    p.seed = seed;
    const WeightedGraph g = graph::netgen_style(p);
    const Bipartition spectral_cut = cutter.bipartition(g);
    const Bipartition exact = mincut::stoer_wagner(g);
    // The sweep cut is restricted to Fiedler-order threshold cuts, so a
    // constant-factor gap vs the unconstrained optimum is expected;
    // 3x holds comfortably on these clustered instances.
    EXPECT_LE(spectral_cut.cut_weight, 3.0 * exact.cut_weight + 1e-9);
  }
}

TEST(Bipartitioner, EmptyGraph) {
  SpectralBipartitioner cutter;
  const Bipartition cut = cutter.bipartition(WeightedGraph{});
  EXPECT_TRUE(cut.side.empty());
  EXPECT_DOUBLE_EQ(cut.cut_weight, 0.0);
}

TEST(Bipartitioner, SingleNodeGoesToSideZero) {
  SpectralBipartitioner cutter;
  const Bipartition cut = cutter.bipartition(graph::path_graph(1));
  ASSERT_EQ(cut.side.size(), 1u);
  EXPECT_EQ(cut.side[0], 0);
}

TEST(Bipartitioner, DisconnectedGraphGetsZeroCut) {
  graph::GraphBuilder b;
  for (int i = 0; i < 5; ++i) b.add_node(1.0);
  b.add_edge(0, 1, 3.0);
  b.add_edge(2, 3, 3.0);
  b.add_edge(3, 4, 3.0);
  SpectralBipartitioner cutter;
  const Bipartition cut = cutter.bipartition(b.build());
  EXPECT_DOUBLE_EQ(cut.cut_weight, 0.0);
  EXPECT_GE(cut.size(1), 1u);
}

TEST(Bipartitioner, Name) {
  EXPECT_EQ(SpectralBipartitioner{}.name(), "spectral");
}

}  // namespace
}  // namespace mecoff::spectral

namespace mecoff::spectral {
namespace {

TEST(SplitterRatio, PrefersBalancedBoundaries) {
  // A clique of 7 with a light pendant: plain sweep happily shaves the
  // pendant (cut 0.5); the ratio sweep weighs the sliver's tiny weight
  // against it and picks a more balanced boundary only when it pays.
  graph::GraphBuilder b;
  for (int i = 0; i < 8; ++i) b.add_node(1.0);
  for (int i = 0; i < 7; ++i)
    for (int j = i + 1; j < 7; ++j)
      b.add_edge(static_cast<graph::NodeId>(i),
                 static_cast<graph::NodeId>(j), 5.0);
  b.add_edge(6, 7, 0.5);
  const graph::WeightedGraph g = b.build();
  const FiedlerResult f = fiedler_pair(g);
  const graph::Bipartition plain = sweep_split(g, f.vector);
  const graph::Bipartition ratio = sweep_split_ratio(g, f.vector);
  EXPECT_DOUBLE_EQ(plain.cut_weight, 0.5);  // pendant shaved
  // Ratio score of the pendant split: 0.5 / 1 = 0.5; any balanced clique
  // split scores >= 5·(cut edges)/3.5 ≫ 0.5 — pendant still wins here,
  // which is CORRECT (it is the best ratio too).
  EXPECT_DOUBLE_EQ(ratio.cut_weight, 0.5);
}

TEST(SplitterRatio, BalancedOnBarbell) {
  const graph::WeightedGraph g = graph::barbell_graph(6, 1.0, 10.0);
  const FiedlerResult f = fiedler_pair(g);
  const graph::Bipartition ratio = sweep_split_ratio(g, f.vector);
  EXPECT_DOUBLE_EQ(ratio.cut_weight, 1.0);
  EXPECT_EQ(ratio.size(0), 6u);
}

TEST(SplitterRatio, BeatsPlainSweepOnRatioMetric) {
  for (const std::uint64_t seed : {5ULL, 6ULL, 7ULL}) {
    graph::NetgenParams p;
    p.nodes = 70;
    p.edges = 280;
    p.components = 1;
    p.seed = seed;
    const graph::WeightedGraph g = graph::netgen_style(p);
    const FiedlerResult f = fiedler_pair(g);
    const graph::Bipartition plain = sweep_split(g, f.vector);
    const graph::Bipartition ratio = sweep_split_ratio(g, f.vector);
    const auto score = [&](const graph::Bipartition& cut) {
      double w0 = 0.0;
      for (graph::NodeId v = 0; v < g.num_nodes(); ++v)
        if (cut.side[v] == 0) w0 += g.node_weight(v);
      const double min_side = std::min(w0, g.total_node_weight() - w0);
      return min_side > 0 ? cut.cut_weight / min_side
                          : std::numeric_limits<double>::infinity();
    };
    EXPECT_LE(score(ratio), score(plain) + 1e-9) << seed;
    // And plain sweep stays the raw-cut champion.
    EXPECT_LE(plain.cut_weight, ratio.cut_weight + 1e-9) << seed;
  }
}

TEST(SplitterRatio, PolicyDispatch) {
  const graph::WeightedGraph g = graph::barbell_graph(4, 1.0, 8.0);
  const FiedlerResult f = fiedler_pair(g);
  const graph::Bipartition via_policy =
      split_by_policy(g, f.vector, SplitPolicy::kSweepRatio);
  const graph::Bipartition direct = sweep_split_ratio(g, f.vector);
  EXPECT_EQ(via_policy.side, direct.side);
}

}  // namespace
}  // namespace mecoff::spectral
