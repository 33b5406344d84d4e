// Unit tests for src/graph: core structure, components, subgraphs,
// partitions, metrics, and I/O.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <sstream>

#include "common/contracts.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/metrics.hpp"
#include "graph/partition.hpp"
#include "graph/subgraph.hpp"
#include "graph/weighted_graph.hpp"
#include "testlib/test_graphs.hpp"

namespace mecoff::graph {
namespace {

WeightedGraph triangle() {
  GraphBuilder b;
  b.add_node(1.0);
  b.add_node(2.0);
  b.add_node(3.0);
  b.add_edge(0, 1, 5.0);
  b.add_edge(1, 2, 7.0);
  b.add_edge(0, 2, 9.0);
  return b.build();
}

TEST(WeightedGraph, EmptyGraph) {
  const WeightedGraph g;
  EXPECT_TRUE(g.empty());
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_DOUBLE_EQ(g.total_node_weight(), 0.0);
}

TEST(WeightedGraph, BasicAccessors) {
  const WeightedGraph g = triangle();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_DOUBLE_EQ(g.node_weight(1), 2.0);
  EXPECT_DOUBLE_EQ(g.total_node_weight(), 6.0);
  EXPECT_DOUBLE_EQ(g.total_edge_weight(), 21.0);
  EXPECT_EQ(g.degree(0), 2u);
}

TEST(WeightedGraph, AdjacencyIsSymmetric) {
  const WeightedGraph g = triangle();
  for (const Edge& e : g.edges()) {
    EXPECT_GT(g.edge_weight_between(e.u, e.v), 0.0);
    EXPECT_DOUBLE_EQ(g.edge_weight_between(e.u, e.v),
                     g.edge_weight_between(e.v, e.u));
  }
}

// What lpa::compress_by_labels relies on when it reads edges from a CSR
// view: each adjacency list is ascending, so listing every edge from its
// lower endpoint yields edges() in order, with the same weight bits.
TEST(WeightedGraph, CsrListsEdgesInEdgeOrderFromLowerEndpoints) {
  NetgenParams p;
  p.nodes = 300;
  p.edges = 1400;
  p.components = 3;
  p.seed = 17;
  const WeightedGraph g = netgen_style(p);
  const CsrView csr = g.csr();
  ASSERT_EQ(csr.num_nodes(), g.num_nodes());
  std::size_t next = 0;
  for (NodeId u = 0; u < csr.num_nodes(); ++u) {
    const std::span<const Adjacency> adj = csr.neighbors(u);
    ASSERT_EQ(adj.size(), g.degree(u));
    for (std::size_t i = 0; i < adj.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(adj[i - 1].neighbor, adj[i].neighbor);
      }
      if (adj[i].neighbor < u) continue;
      ASSERT_LT(next, g.num_edges());
      const Edge& e = g.edges()[next++];
      EXPECT_EQ(e.u, u);
      EXPECT_EQ(e.v, adj[i].neighbor);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(e.weight),
                std::bit_cast<std::uint64_t>(adj[i].weight));
    }
  }
  EXPECT_EQ(next, g.num_edges());
  EXPECT_EQ(WeightedGraph{}.csr().num_nodes(), 0u);
}

TEST(WeightedGraph, MissingEdgeHasZeroWeight) {
  GraphBuilder b;
  b.add_node(1);
  b.add_node(1);
  b.add_node(1);
  b.add_edge(0, 1, 2.0);
  const WeightedGraph g = b.build();
  EXPECT_DOUBLE_EQ(g.edge_weight_between(0, 2), 0.0);
}

/// Every edge stored once as (min, max), strictly sorted by endpoints.
void expect_canonical_edges(const WeightedGraph& g) {
  for (std::size_t i = 0; i < g.num_edges(); ++i) {
    const Edge& e = g.edges()[i];
    EXPECT_LT(e.u, e.v) << "edge " << i;
    if (i == 0) continue;
    const Edge& prev = g.edges()[i - 1];
    EXPECT_TRUE(prev.u < e.u || (prev.u == e.u && prev.v < e.v))
        << "edge " << i;
  }
}

TEST(GraphBuilder, ParallelEdgesMerge) {
  GraphBuilder b;
  b.add_node(1);
  b.add_node(1);
  b.add_edge(0, 1, 2.0);
  b.add_edge(1, 0, 3.0);  // reverse orientation merges too
  const WeightedGraph g = b.build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(g.edge_weight_between(0, 1), 5.0);

  // Reversed and repeated edges come out canonical and sorted.
  GraphBuilder r(5);
  r.add_edge(4, 3, 1.0);
  r.add_edge(2, 0, 2.0);
  r.add_edge(3, 4, 4.0);
  r.add_edge(1, 0, 8.0);
  r.add_edge(0, 2, 16.0);
  r.add_edge(4, 1, 32.0);
  const WeightedGraph rg = r.build();
  expect_canonical_edges(rg);
  ASSERT_EQ(rg.num_edges(), 4u);
  EXPECT_EQ(rg.edge(0).u, 0u);
  EXPECT_EQ(rg.edge(0).v, 1u);
  EXPECT_EQ(rg.edge(0).weight, 8.0);
  EXPECT_EQ(rg.edge(1).v, 2u);
  EXPECT_EQ(rg.edge(1).weight, 18.0);
  EXPECT_EQ(rg.edge(2).u, 1u);
  EXPECT_EQ(rg.edge(2).v, 4u);
  EXPECT_EQ(rg.edge(3).u, 3u);
  EXPECT_EQ(rg.edge(3).weight, 5.0);

  // More than 16 parallel copies, interleaved with other edges, sum in
  // insertion order: 1e16 then 1.0s stays exactly 1e16 (each 1e16 + 1
  // rounds back to even), while any 1.0s summed first would exceed it.
  GraphBuilder p(4);
  for (int k = 0; k < 20; ++k) {
    p.add_edge(3, 2, 1.0);
    p.add_edge(1, 0, k == 0 ? 1e16 : 1.0);
    p.add_edge(2, 0, 0.5);
  }
  const WeightedGraph pg = p.build();
  expect_canonical_edges(pg);
  ASSERT_EQ(pg.num_edges(), 3u);
  EXPECT_EQ(pg.edge_weight_between(0, 1), 1e16);
  EXPECT_GT(1.0 + 1.0 + 1e16, 1e16);
  EXPECT_EQ(pg.edge_weight_between(2, 3), 20.0);
  EXPECT_EQ(pg.edge_weight_between(0, 2), 10.0);

  // A -0.0 weight is stored as +0.0, in the edge list and the adjacency.
  GraphBuilder z(2);
  z.add_edge(1, 0, -0.0);
  const WeightedGraph zg = z.build();
  ASSERT_EQ(zg.num_edges(), 1u);
  EXPECT_FALSE(std::signbit(zg.edge(0).weight));
  EXPECT_FALSE(std::signbit(zg.neighbors(0)[0].weight));

  // Extraction over a descending node list still yields canonical edges
  // with the parent's weights.
  NetgenParams gp;
  gp.nodes = 40;
  gp.edges = 120;
  gp.seed = 9;
  const WeightedGraph parent = netgen_style(gp);
  std::vector<NodeId> descending;
  for (NodeId v = 40; v-- > 0;)
    if (v % 3 != 0) descending.push_back(v);
  const Subgraph sub = induced_subgraph(parent, descending);
  expect_canonical_edges(sub.graph);
  std::size_t internal = 0;
  for (const Edge& e : parent.edges())
    if (e.u % 3 != 0 && e.v % 3 != 0) ++internal;
  EXPECT_EQ(sub.graph.num_edges(), internal);
  for (const Edge& e : sub.graph.edges())
    EXPECT_EQ(e.weight, parent.edge_weight_between(sub.to_parent[e.u],
                                                   sub.to_parent[e.v]));
}

TEST(GraphBuilder, RejectsSelfLoop) {
  GraphBuilder b;
  b.add_node(1);
  EXPECT_THROW(b.add_edge(0, 0, 1.0), PreconditionError);
}

TEST(GraphBuilder, RejectsNegativeWeights) {
  GraphBuilder b;
  EXPECT_THROW(b.add_node(-1.0), PreconditionError);
  b.add_node(1);
  b.add_node(1);
  EXPECT_THROW(b.add_edge(0, 1, -2.0), PreconditionError);
}

TEST(GraphBuilder, RejectsOutOfRangeEndpoint) {
  GraphBuilder b;
  b.add_node(1);
  b.add_node(1);
  EXPECT_THROW(b.add_edge(0, 5, 1.0), PreconditionError);
}

TEST(GraphBuilder, PresizedNodesDefaultToZeroWeight) {
  GraphBuilder b(3);
  EXPECT_EQ(b.num_nodes(), 3u);
  b.set_node_weight(1, 4.0);
  const WeightedGraph g = b.build();
  EXPECT_DOUBLE_EQ(g.node_weight(0), 0.0);
  EXPECT_DOUBLE_EQ(g.node_weight(1), 4.0);
}

TEST(WeightedGraph, OutOfRangeAccessThrows) {
  const WeightedGraph g = triangle();
  EXPECT_THROW((void)g.node_weight(3), PreconditionError);
  EXPECT_THROW((void)g.neighbors(9), PreconditionError);
  EXPECT_THROW((void)g.edge(99), PreconditionError);
}

TEST(Components, SingleComponent) {
  const WeightedGraph g = triangle();
  const ComponentLabels labels = connected_components(g);
  EXPECT_EQ(labels.count, 1u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Components, TwoComponents) {
  GraphBuilder b;
  for (int i = 0; i < 5; ++i) b.add_node(1);
  b.add_edge(0, 1, 1);
  b.add_edge(3, 4, 1);
  const WeightedGraph g = b.build();
  const ComponentLabels labels = connected_components(g);
  EXPECT_EQ(labels.count, 3u);  // {0,1}, {2}, {3,4}
  EXPECT_EQ(labels.component_of[0], labels.component_of[1]);
  EXPECT_NE(labels.component_of[0], labels.component_of[2]);
  EXPECT_FALSE(is_connected(g));

  const auto lists = component_node_lists(labels);
  ASSERT_EQ(lists.size(), 3u);
  std::size_t total = 0;
  for (const auto& list : lists) total += list.size();
  EXPECT_EQ(total, 5u);
}

TEST(Components, EmptyGraphIsConnected) {
  EXPECT_TRUE(is_connected(WeightedGraph{}));
}

TEST(Subgraph, InducedKeepsInternalEdges) {
  const WeightedGraph g = triangle();
  const std::vector<NodeId> keep{0, 2};
  const Subgraph sub = induced_subgraph(g, keep);
  EXPECT_EQ(sub.graph.num_nodes(), 2u);
  EXPECT_EQ(sub.graph.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(sub.graph.edge_weight_between(0, 1), 9.0);
  EXPECT_EQ(sub.to_parent[0], 0u);
  EXPECT_EQ(sub.to_parent[1], 2u);
  EXPECT_DOUBLE_EQ(sub.graph.node_weight(1), 3.0);
}

TEST(Subgraph, RemoveNodes) {
  const WeightedGraph g = triangle();
  const Subgraph sub = remove_nodes(g, {false, true, false});
  EXPECT_EQ(sub.graph.num_nodes(), 2u);
  EXPECT_EQ(sub.graph.num_edges(), 1u);
  EXPECT_EQ(sub.to_parent, (std::vector<NodeId>{0, 2}));
}

TEST(Subgraph, DuplicateNodesRejected) {
  const WeightedGraph g = triangle();
  const std::vector<NodeId> dup{0, 0};
  EXPECT_THROW(induced_subgraph(g, dup), PreconditionError);
}

TEST(Partition, CutWeightCountsCrossEdges) {
  const WeightedGraph g = triangle();
  EXPECT_DOUBLE_EQ(cut_weight(g, {0, 1, 0}), 5.0 + 7.0);
  EXPECT_DOUBLE_EQ(cut_weight(g, {0, 0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(cut_weight(g, {1, 0, 0}), 5.0 + 9.0);
}

TEST(Partition, Validity) {
  const WeightedGraph g = triangle();
  EXPECT_TRUE(is_valid_partition(g, {0, 1, 1}));
  EXPECT_FALSE(is_valid_partition(g, {0, 1}));       // wrong length
  EXPECT_FALSE(is_valid_partition(g, {0, 1, 2}));    // bad side value
}

TEST(Partition, SideHelpers) {
  Bipartition p;
  p.side = {0, 1, 1, 0};
  EXPECT_EQ(p.size(0), 2u);
  EXPECT_EQ(p.size(1), 2u);
}

TEST(Metrics, StatsOnTriangle) {
  const GraphStats s = compute_stats(triangle());
  EXPECT_EQ(s.nodes, 3u);
  EXPECT_EQ(s.edges, 3u);
  EXPECT_DOUBLE_EQ(s.total_node_weight, 6.0);
  EXPECT_DOUBLE_EQ(s.avg_degree, 2.0);
  EXPECT_EQ(s.max_degree, 2u);
  EXPECT_DOUBLE_EQ(s.min_edge_weight, 5.0);
  EXPECT_DOUBLE_EQ(s.max_edge_weight, 9.0);
}

TEST(GraphIo, EdgeListRoundTrip) {
  const WeightedGraph g = triangle();
  const std::string text = to_edge_list(g);
  const Result<WeightedGraph> parsed = parse_edge_list(text);
  ASSERT_TRUE(parsed.ok());
  const WeightedGraph& h = parsed.value();
  EXPECT_EQ(h.num_nodes(), g.num_nodes());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  EXPECT_DOUBLE_EQ(h.node_weight(2), 3.0);
  EXPECT_DOUBLE_EQ(h.edge_weight_between(1, 2), 7.0);
}

TEST(GraphIo, ParseRejectsMalformedInput) {
  EXPECT_FALSE(parse_edge_list("").ok());
  EXPECT_FALSE(parse_edge_list("edge 0 1 2\n").ok());       // before nodes
  EXPECT_FALSE(parse_edge_list("nodes 2\nedge 0 0 1\n").ok());  // self-loop
  EXPECT_FALSE(parse_edge_list("nodes 2\nedge 0 5 1\n").ok());  // range
  EXPECT_FALSE(parse_edge_list("nodes 2\nfrob 1\n").ok());  // directive
  EXPECT_FALSE(parse_edge_list("nodes 2\nnodes 2\n").ok()); // duplicate
}

TEST(GraphIo, ParseErrorNamesLine) {
  const auto r = parse_edge_list("nodes 2\nedge 0 0 1\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("line 2"), std::string::npos);
}

TEST(GraphIo, ParseSkipsCommentsAndBlanks) {
  const auto r = parse_edge_list(
      "# header\n\nnodes 2\n node 0 4\n# mid\nedge 0 1 2.5\n");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value().node_weight(0), 4.0);
  EXPECT_DOUBLE_EQ(r.value().edge_weight_between(0, 1), 2.5);
}

TEST(GraphIo, DotContainsNodesAndEdges) {
  const std::string dot = to_dot(triangle(), {0, 1, 1});
  EXPECT_NE(dot.find("n0 -- n1"), std::string::npos);
  EXPECT_NE(dot.find("fillcolor"), std::string::npos);
}

}  // namespace
}  // namespace mecoff::graph
