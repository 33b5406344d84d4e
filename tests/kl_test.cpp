// Unit tests for the Kernighan–Lin baseline.
#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "kl/kernighan_lin.hpp"
#include "mincut/stoer_wagner.hpp"
#include "testlib/test_graphs.hpp"

namespace mecoff::kl {
namespace {

using graph::Bipartition;
using graph::NodeId;
using graph::WeightedGraph;

Bipartition alternating_partition(const WeightedGraph& g) {
  Bipartition p;
  p.side.resize(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) p.side[v] = v % 2;
  p.cut_weight = graph::cut_weight(g, p.side);
  return p;
}

TEST(KlRefine, NeverIncreasesCutWeight) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    graph::NetgenParams params;
    params.nodes = 60;
    params.edges = 240;
    params.components = 1;
    params.seed = seed;
    const WeightedGraph g = graph::netgen_style(params);
    const Bipartition initial = alternating_partition(g);
    const KlResult r = kernighan_lin_refine(g, initial);
    EXPECT_LE(r.partition.cut_weight, initial.cut_weight + 1e-9);
    EXPECT_NEAR(initial.cut_weight - r.partition.cut_weight, r.total_gain,
                1e-6);
  }
}

TEST(KlRefine, PreservesPartitionSizes) {
  const WeightedGraph g = graph::barbell_graph(6, 1.0, 9.0);
  const Bipartition initial = alternating_partition(g);
  const std::size_t size0 = initial.size(0);
  const KlResult r = kernighan_lin_refine(g, initial);
  EXPECT_EQ(r.partition.size(0), size0);
}

TEST(KlRefine, FixesBadBarbellPartition) {
  // Alternating start cuts every clique edge; KL must recover the
  // clique-vs-clique split whose cut is exactly the bridge.
  const WeightedGraph g = graph::barbell_graph(5, 1.0, 10.0);
  const Bipartition initial = alternating_partition(g);
  const KlResult r = kernighan_lin_refine(g, initial);
  EXPECT_DOUBLE_EQ(r.partition.cut_weight, 1.0);
}

TEST(KlRefine, ReportsPassCount) {
  const WeightedGraph g = graph::barbell_graph(4, 1.0, 8.0);
  const KlResult r =
      kernighan_lin_refine(g, alternating_partition(g));
  EXPECT_GE(r.passes, 1u);
  EXPECT_LE(r.passes, kMaxPasses);
}

TEST(KlRefine, AlreadyOptimalStaysPut) {
  const WeightedGraph g = graph::barbell_graph(4, 1.0, 8.0);
  Bipartition optimal;
  optimal.side = {0, 0, 0, 0, 1, 1, 1, 1};
  optimal.cut_weight = graph::cut_weight(g, optimal.side);
  const KlResult r = kernighan_lin_refine(g, optimal);
  EXPECT_DOUBLE_EQ(r.partition.cut_weight, 1.0);
  EXPECT_DOUBLE_EQ(r.total_gain, 0.0);
}

TEST(KlRefine, InvalidInitialPartitionThrows) {
  const WeightedGraph g = graph::path_graph(4);
  Bipartition bad;
  bad.side = {0, 1};  // wrong length
  EXPECT_THROW(kernighan_lin_refine(g, bad),
               mecoff::PreconditionError);
}

TEST(KlBipartitioner, BalancedSplit) {
  graph::NetgenParams params;
  params.nodes = 40;
  params.edges = 150;
  params.components = 1;
  params.seed = 10;
  const WeightedGraph g = graph::netgen_style(params);
  KernighanLinBipartitioner cutter;
  const Bipartition cut = cutter.bipartition(g);
  EXPECT_TRUE(graph::is_valid_partition(g, cut.side));
  EXPECT_EQ(cut.size(1), g.num_nodes() / 2);
}

TEST(KlBipartitioner, WithinFactorOfGlobalOptimumOnBarbell) {
  // KL is balance-constrained, so on an even barbell the optimum
  // balanced cut IS the global min cut.
  const WeightedGraph g = graph::barbell_graph(6, 1.0, 10.0);
  KernighanLinBipartitioner cutter;
  const Bipartition cut = cutter.bipartition(g);
  EXPECT_DOUBLE_EQ(cut.cut_weight, mincut::stoer_wagner(g).cut_weight);
}

TEST(KlBipartitioner, DegenerateInputs) {
  KernighanLinBipartitioner cutter;
  EXPECT_TRUE(cutter.bipartition(graph::WeightedGraph{}).side.empty());
  const Bipartition one = cutter.bipartition(graph::path_graph(1));
  EXPECT_EQ(one.side.size(), 1u);
}

TEST(KlBipartitioner, DeterministicForFixedSeed) {
  graph::NetgenParams params;
  params.nodes = 30;
  params.edges = 100;
  params.seed = 44;
  const WeightedGraph g = graph::netgen_style(params);
  KernighanLinBipartitioner a;
  KernighanLinBipartitioner b;
  EXPECT_EQ(a.bipartition(g).side, b.bipartition(g).side);
}

TEST(KlBipartitioner, Name) {
  EXPECT_EQ(KernighanLinBipartitioner{}.name(), "kl");
}

}  // namespace
}  // namespace mecoff::kl
