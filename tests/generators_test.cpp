// Unit tests for graph generators: the NETGEN-style workload generator,
// plus the fixed shapes and call-graph generator of tests/testlib that
// the other suites take as inputs.
#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "testlib/test_graphs.hpp"

namespace mecoff::graph {
namespace {

TEST(FixedShapes, PathGraph) {
  const WeightedGraph g = path_graph(6, 2.0, 3.0);
  EXPECT_EQ(g.num_nodes(), 6u);
  EXPECT_EQ(g.num_edges(), 5u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_DOUBLE_EQ(g.node_weight(3), 2.0);
  EXPECT_DOUBLE_EQ(g.edge_weight_between(2, 3), 3.0);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(3), 2u);
}

TEST(FixedShapes, CycleGraph) {
  const WeightedGraph g = cycle_graph(5);
  EXPECT_EQ(g.num_edges(), 5u);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(g.degree(v), 2u);
}

TEST(FixedShapes, CycleRequiresThreeNodes) {
  EXPECT_THROW(cycle_graph(2), mecoff::PreconditionError);
}

TEST(FixedShapes, CompleteGraph) {
  const WeightedGraph g = complete_graph(6);
  EXPECT_EQ(g.num_edges(), 15u);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(g.degree(v), 5u);
}

TEST(FixedShapes, StarGraph) {
  const WeightedGraph g = star_graph(7);
  EXPECT_EQ(g.num_edges(), 6u);
  EXPECT_EQ(g.degree(0), 6u);
  EXPECT_EQ(g.degree(3), 1u);
}

TEST(FixedShapes, GridGraph) {
  const WeightedGraph g = grid_graph(3, 4);
  EXPECT_EQ(g.num_nodes(), 12u);
  // 3 rows * 3 horizontal + 2 * 4 vertical = 9 + 8.
  EXPECT_EQ(g.num_edges(), 17u);
  EXPECT_TRUE(is_connected(g));
}

TEST(FixedShapes, BarbellBridgeIsLightest) {
  const WeightedGraph g = barbell_graph(4, 1.0, 10.0);
  EXPECT_EQ(g.num_nodes(), 8u);
  // Two K4s (6 edges each) plus one bridge.
  EXPECT_EQ(g.num_edges(), 13u);
  const GraphStats s = compute_stats(g);
  EXPECT_DOUBLE_EQ(s.min_edge_weight, 1.0);
  EXPECT_DOUBLE_EQ(g.edge_weight_between(3, 4), 1.0);
}

TEST(Netgen, ExactNodeCount) {
  NetgenParams p;
  p.nodes = 250;
  p.edges = 1214;
  p.seed = 5;
  const WeightedGraph g = netgen_style(p);
  EXPECT_EQ(g.num_nodes(), 250u);
}

TEST(Netgen, EdgeCountNearTarget) {
  NetgenParams p;
  p.nodes = 500;
  p.edges = 2643;
  p.seed = 9;
  const WeightedGraph g = netgen_style(p);
  // Merged duplicates can undercut the target slightly.
  EXPECT_GE(g.num_edges(), static_cast<std::size_t>(0.85 * p.edges));
  EXPECT_LE(g.num_edges(), p.edges);
}

TEST(Netgen, ComponentCountMatches) {
  NetgenParams p;
  p.nodes = 300;
  p.edges = 900;
  p.components = 6;
  p.seed = 11;
  const WeightedGraph g = netgen_style(p);
  EXPECT_EQ(connected_components(g).count, 6u);
}

TEST(Netgen, SingleComponentIsConnected) {
  NetgenParams p;
  p.nodes = 120;
  p.edges = 500;
  p.components = 1;
  p.seed = 3;
  EXPECT_TRUE(is_connected(netgen_style(p)));
}

TEST(Netgen, NodeWeightsInRange) {
  NetgenParams p;
  p.nodes = 200;
  p.edges = 800;
  p.min_node_weight = 2.0;
  p.max_node_weight = 6.0;
  p.seed = 13;
  const WeightedGraph g = netgen_style(p);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_GE(g.node_weight(v), 2.0);
    EXPECT_LE(g.node_weight(v), 6.0);
  }
}

TEST(Netgen, HeavyIntraClusterEdgesExist) {
  NetgenParams p;
  p.nodes = 200;
  p.edges = 800;
  p.min_edge_weight = 1.0;
  p.max_edge_weight = 2.0;
  p.heavy_weight_multiplier = 10.0;
  p.seed = 17;
  const GraphStats s = compute_stats(netgen_style(p));
  // Light edges stay <= 2; heavy ones reach well above.
  EXPECT_GT(s.max_edge_weight, 5.0);
  EXPECT_GE(s.min_edge_weight, 1.0);
}

TEST(Netgen, DeterministicPerSeed) {
  NetgenParams p;
  p.nodes = 100;
  p.edges = 400;
  p.seed = 21;
  const WeightedGraph a = netgen_style(p);
  const WeightedGraph b = netgen_style(p);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (std::size_t i = 0; i < a.num_edges(); ++i) {
    EXPECT_EQ(a.edges()[i].u, b.edges()[i].u);
    EXPECT_DOUBLE_EQ(a.edges()[i].weight, b.edges()[i].weight);
  }
}

TEST(Netgen, DifferentSeedsDiffer) {
  NetgenParams p;
  p.nodes = 100;
  p.edges = 400;
  p.seed = 1;
  const WeightedGraph a = netgen_style(p);
  p.seed = 2;
  const WeightedGraph b = netgen_style(p);
  bool any_diff = a.num_edges() != b.num_edges();
  if (!any_diff) {
    for (std::size_t i = 0; i < a.num_edges() && !any_diff; ++i)
      any_diff = a.edges()[i].weight != b.edges()[i].weight;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Netgen, TinyGraphDoesNotCrash) {
  NetgenParams p;
  p.nodes = 1;
  p.edges = 0;
  p.components = 1;
  const WeightedGraph g = netgen_style(p);
  EXPECT_EQ(g.num_nodes(), 1u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(CallGraph, ConnectedTree) {
  CallGraphParams p;
  p.functions = 50;
  p.shortcut_probability = 0.0;
  p.seed = 4;
  const WeightedGraph g = app_call_graph(p);
  EXPECT_EQ(g.num_nodes(), 50u);
  EXPECT_EQ(g.num_edges(), 49u);  // pure tree
  EXPECT_TRUE(is_connected(g));
}

TEST(CallGraph, ShortcutsAddEdges) {
  CallGraphParams p;
  p.functions = 80;
  p.shortcut_probability = 0.5;
  p.seed = 6;
  const WeightedGraph g = app_call_graph(p);
  EXPECT_GT(g.num_edges(), 79u);
  EXPECT_TRUE(is_connected(g));
}

TEST(CallGraph, WeightsWithinConfiguredRanges) {
  CallGraphParams p;
  p.functions = 60;
  p.min_compute = 5;
  p.max_compute = 10;
  p.min_data = 2;
  p.max_data = 4;
  // Shortcut edges can land on an existing pair and merge (summing
  // weights); disable them to test the per-edge range contract.
  p.shortcut_probability = 0.0;
  p.seed = 8;
  const WeightedGraph g = app_call_graph(p);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_GE(g.node_weight(v), 5.0);
    EXPECT_LE(g.node_weight(v), 10.0);
  }
  const GraphStats s = compute_stats(g);
  EXPECT_GE(s.min_edge_weight, 2.0);
  EXPECT_LE(s.max_edge_weight, 4.0);
}

}  // namespace
}  // namespace mecoff::graph
