// Unit tests for Algorithm 1: the label rule, propagation termination,
// the merging compressor, and the parallel per-component pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <set>
#include <string>

#include "common/contracts.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"
#include "lpa/compressor.hpp"
#include "lpa/pipeline.hpp"
#include "lpa/propagation.hpp"
#include "parallel/thread_pool.hpp"
#include "support/workloads.hpp"
#include "testlib/test_graphs.hpp"

namespace mecoff::lpa {
namespace {

using graph::GraphBuilder;
using graph::NodeId;
using graph::WeightedGraph;

TEST(Starter, PicksMaxDegreeNode) {
  // Star graph: the hub has the largest degree.
  const WeightedGraph g = graph::star_graph(6);
  EXPECT_EQ(select_starter(g), 0u);
}

TEST(Starter, EmptyGraph) {
  EXPECT_EQ(select_starter(WeightedGraph{}), graph::kInvalidNode);
}

TEST(Starter, TieBreaksToSmallestId) {
  const WeightedGraph g = graph::cycle_graph(4);  // all degree 2
  EXPECT_EQ(select_starter(g), 0u);
}

TEST(Propagation, HeavyEdgesShareLabels) {
  // Barbell: heavy cliques (w=10) joined by a light bridge (w=1).
  // With threshold 5, each clique collapses to one label; the bridge
  // does not propagate.
  const WeightedGraph g = graph::barbell_graph(4, 1.0, 10.0);
  PropagationConfig config;
  config.coupling_threshold = 5.0;
  const PropagationResult r = propagate_labels(g, config);
  EXPECT_EQ(r.num_labels, 2u);
  for (NodeId v = 1; v < 4; ++v) EXPECT_EQ(r.labels[v], r.labels[0]);
  for (NodeId v = 5; v < 8; ++v) EXPECT_EQ(r.labels[v], r.labels[4]);
  EXPECT_NE(r.labels[0], r.labels[4]);
}

TEST(Propagation, ThresholdAboveAllWeightsIsolatesEveryNode) {
  const WeightedGraph g = graph::complete_graph(5, 1.0, 2.0);
  PropagationConfig config;
  config.coupling_threshold = 100.0;
  const PropagationResult r = propagate_labels(g, config);
  EXPECT_EQ(r.num_labels, 5u);
}

TEST(Propagation, ThresholdBelowAllWeightsUnifiesConnectedGraph) {
  const WeightedGraph g = graph::cycle_graph(7, 1.0, 5.0);
  PropagationConfig config;
  config.coupling_threshold = 0.5;
  const PropagationResult r = propagate_labels(g, config);
  EXPECT_EQ(r.num_labels, 1u);
}

TEST(Propagation, ThresholdIsStrict) {
  // Edge weight exactly equal to the threshold must NOT propagate.
  const WeightedGraph g = graph::path_graph(3, 1.0, 5.0);
  PropagationConfig config;
  config.coupling_threshold = 5.0;
  const PropagationResult r = propagate_labels(g, config);
  EXPECT_EQ(r.num_labels, 3u);
}

TEST(Propagation, RespectsMaxRounds) {
  const WeightedGraph g = graph::barbell_graph(6, 1.0, 9.0);
  PropagationConfig config;
  config.coupling_threshold = 5.0;
  config.max_rounds = 1;
  config.min_update_rate = 0.0;
  const PropagationResult r = propagate_labels(g, config);
  EXPECT_EQ(r.rounds, 1u);
  EXPECT_EQ(r.update_rates.size(), 1u);
}

TEST(Propagation, StopsWhenUpdateRateDrops) {
  const WeightedGraph g = graph::barbell_graph(5, 1.0, 9.0);
  PropagationConfig config;
  config.coupling_threshold = 5.0;
  config.max_rounds = 50;
  config.min_update_rate = 0.01;
  const PropagationResult r = propagate_labels(g, config);
  EXPECT_LT(r.rounds, 50u);
  EXPECT_LE(r.update_rates.back(), 0.01);
}

TEST(Propagation, BfsAndDfsBothClusterBarbell) {
  const WeightedGraph g = graph::barbell_graph(4, 1.0, 10.0);
  PropagationConfig config;
  config.coupling_threshold = 5.0;
  EXPECT_EQ(propagate_labels(g, config).num_labels, 2u);
}

TEST(Propagation, EmptyAndSingleNode) {
  EXPECT_EQ(propagate_labels(WeightedGraph{}, {}).num_labels, 0u);
  const WeightedGraph one = graph::path_graph(1);
  const PropagationResult r = propagate_labels(one, {});
  EXPECT_EQ(r.num_labels, 1u);
  EXPECT_EQ(r.labels[0], 0u);
}

TEST(Propagation, LabelsAreDense) {
  const WeightedGraph g = graph::barbell_graph(3, 1.0, 8.0);
  PropagationConfig config;
  config.coupling_threshold = 4.0;
  const PropagationResult r = propagate_labels(g, config);
  std::set<std::uint32_t> distinct(r.labels.begin(), r.labels.end());
  EXPECT_EQ(distinct.size(), r.num_labels);
  EXPECT_EQ(*distinct.begin(), 0u);
  EXPECT_EQ(*distinct.rbegin(), r.num_labels - 1);
}

TEST(Compressor, MergesSameLabelConnectedNodes) {
  const WeightedGraph g = graph::barbell_graph(4, 1.0, 10.0);
  PropagationConfig config;
  config.coupling_threshold = 5.0;
  const PropagationResult prop = propagate_labels(g, config);
  const CompressionResult comp = compress_by_labels(g, prop.labels);
  EXPECT_EQ(comp.compressed.num_nodes(), 2u);
  EXPECT_EQ(comp.compressed.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(comp.compressed.edge_weight_between(0, 1), 1.0);
}

TEST(Compressor, ConservesNodeWeight) {
  const WeightedGraph g = graph::barbell_graph(5, 2.0, 9.0);
  PropagationConfig config;
  config.coupling_threshold = 4.0;
  const PropagationResult prop = propagate_labels(g, config);
  const CompressionResult comp = compress_by_labels(g, prop.labels);
  EXPECT_NEAR(comp.compressed.total_node_weight(), g.total_node_weight(),
              1e-9);
}

TEST(Compressor, ConservesEdgeWeightPlusAbsorbed) {
  const WeightedGraph g = graph::barbell_graph(5, 1.5, 7.0);
  PropagationConfig config;
  config.coupling_threshold = 4.0;
  const PropagationResult prop = propagate_labels(g, config);
  const CompressionResult comp = compress_by_labels(g, prop.labels);
  EXPECT_NEAR(comp.compressed.total_edge_weight() +
                  comp.stats.absorbed_edge_weight,
              g.total_edge_weight(), 1e-9);
}

TEST(Compressor, NeverMergesAcrossLabels) {
  const WeightedGraph g = graph::path_graph(4, 1.0, 10.0);
  // Hand labels: {0,1} and {2,3}.
  const CompressionResult comp = compress_by_labels(g, {7, 7, 9, 9});
  EXPECT_EQ(comp.compressed.num_nodes(), 2u);
  for (const auto& members : comp.members) {
    std::set<std::uint32_t> labels;
    for (const NodeId v : members) labels.insert(v < 2 ? 7u : 9u);
    EXPECT_EQ(labels.size(), 1u);
  }
}

TEST(Compressor, SameLabelDisconnectedNodesStaySeparate) {
  // Nodes 0 and 2 share a label but are not directly connected (and not
  // connected through a same-label path): they must NOT merge.
  GraphBuilder b;
  for (int i = 0; i < 3; ++i) b.add_node(1.0);
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 2, 1.0);
  const WeightedGraph g = b.build();
  const CompressionResult comp = compress_by_labels(g, {5, 8, 5});
  EXPECT_EQ(comp.compressed.num_nodes(), 3u);
}

TEST(Compressor, MembersPartitionTheNodes) {
  const WeightedGraph g = graph::barbell_graph(4, 1.0, 10.0);
  PropagationConfig config;
  config.coupling_threshold = 5.0;
  const PropagationResult prop = propagate_labels(g, config);
  const CompressionResult comp = compress_by_labels(g, prop.labels);
  std::set<NodeId> seen;
  for (const auto& members : comp.members)
    for (const NodeId v : members) EXPECT_TRUE(seen.insert(v).second);
  EXPECT_EQ(seen.size(), g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    EXPECT_LT(comp.super_of[v], comp.compressed.num_nodes());
}

TEST(Compressor, IdentityWhenEveryLabelDistinct) {
  const WeightedGraph g = graph::cycle_graph(5);
  const CompressionResult comp =
      compress_by_labels(g, {0, 1, 2, 3, 4});
  EXPECT_EQ(comp.compressed.num_nodes(), 5u);
  EXPECT_EQ(comp.compressed.num_edges(), 5u);
  EXPECT_DOUBLE_EQ(comp.stats.absorbed_edge_weight, 0.0);
  EXPECT_DOUBLE_EQ(comp.stats.node_reduction(), 0.0);
}

TEST(Pipeline, RemovesUnoffloadableNodes) {
  const WeightedGraph g = graph::path_graph(5);
  const std::vector<bool> pinned{true, false, false, false, true};
  const CompressionPipelineResult r =
      compress_application(g, pinned, PropagationConfig{});
  ASSERT_EQ(r.components.size(), 1u);
  EXPECT_EQ(r.components[0].nodes, (std::vector<NodeId>{1, 2, 3}));
}

TEST(Pipeline, SplitsByConnectivity) {
  // Removing the middle node splits the path into two components.
  const WeightedGraph g = graph::path_graph(5);
  const std::vector<bool> pinned{false, false, true, false, false};
  const CompressionPipelineResult r =
      compress_application(g, pinned, PropagationConfig{});
  EXPECT_EQ(r.components.size(), 2u);
}

TEST(Pipeline, DeclaredComponentsRefineSplit) {
  // A connected path of 4 with declared components {A,A,B,B} must yield
  // two sub-graphs even though the graph is connected.
  const WeightedGraph g = graph::path_graph(4);
  const std::vector<bool> pinned(4, false);
  const std::vector<std::uint32_t> declared{0, 0, 1, 1};
  const CompressionPipelineResult r = compress_application(
      g, pinned, PropagationConfig{}, nullptr, &declared);
  EXPECT_EQ(r.components.size(), 2u);
}

TEST(Pipeline, OriginalMembersMapThroughBothLayers) {
  const WeightedGraph g = graph::barbell_graph(3, 1.0, 10.0);
  const std::vector<bool> pinned{true, false, false, false, false, false};
  PropagationConfig config;
  config.coupling_threshold = 5.0;
  const CompressionPipelineResult r = compress_application(g, pinned, config);
  std::set<NodeId> all_members;
  for (std::size_t c = 0; c < r.components.size(); ++c) {
    const auto& comp = r.components[c];
    for (NodeId super = 0; super < comp.compression.compressed.num_nodes();
         ++super) {
      for (const NodeId orig : r.original_members(c, super)) {
        EXPECT_FALSE(pinned[orig]);  // pinned never reappears
        EXPECT_TRUE(all_members.insert(orig).second);
      }
    }
  }
  EXPECT_EQ(all_members.size(), 5u);
}

TEST(Pipeline, ParallelMatchesSerial) {
  graph::NetgenParams p;
  p.nodes = 200;
  p.edges = 800;
  p.components = 4;
  p.seed = 23;
  const WeightedGraph g = graph::netgen_style(p);
  const std::vector<bool> pinned(g.num_nodes(), false);
  PropagationConfig config;
  config.coupling_threshold = 10.0;

  const CompressionPipelineResult serial =
      compress_application(g, pinned, config);
  parallel::ThreadPool pool(4);
  const CompressionPipelineResult parallel_r =
      compress_application(g, pinned, config, &pool);

  const CompressionStats a = serial.aggregate_stats();
  const CompressionStats b = parallel_r.aggregate_stats();
  EXPECT_EQ(a.compressed_nodes, b.compressed_nodes);
  EXPECT_EQ(a.compressed_edges, b.compressed_edges);
  EXPECT_NEAR(a.absorbed_edge_weight, b.absorbed_edge_weight, 1e-9);
}

TEST(Pipeline, CompressionShrinksClusteredGraphs) {
  graph::NetgenParams p;
  p.nodes = 250;
  p.edges = 1214;
  p.seed = 1;
  const WeightedGraph g = graph::netgen_style(p);
  const std::vector<bool> pinned(g.num_nodes(), false);
  PropagationConfig config;
  // netgen default: light edges <= 10, heavy ~8x heavier.
  config.coupling_threshold = 10.0;
  const CompressionPipelineResult r = compress_application(g, pinned, config);
  const CompressionStats stats = r.aggregate_stats();
  EXPECT_LT(stats.compressed_nodes, stats.original_nodes / 2);
}

TEST(Pipeline, AllPinnedYieldsNothing) {
  const WeightedGraph g = graph::path_graph(4);
  const std::vector<bool> pinned(4, true);
  const CompressionPipelineResult r =
      compress_application(g, pinned, PropagationConfig{});
  EXPECT_TRUE(r.components.empty());  // so no node in any `nodes` list
}

// compress_application as it was before the one-pass split, kept
// verbatim apart from its result types: an offloadable copy of the
// graph (remove_nodes), then one induced sub-graph per component. The
// bitwise oracle of Pipeline.MatchesReferencePipelineBitwise.
struct ReferenceComponent {
  graph::Subgraph component;
  PropagationResult propagation;
  CompressionResult compression;
};

struct ReferencePipeline {
  graph::Subgraph offloadable;
  std::vector<ReferenceComponent> components;
};

ReferencePipeline reference_compress_application(
    const WeightedGraph& g, const std::vector<bool>& unoffloadable,
    const PropagationConfig& config, parallel::ThreadPool* pool,
    const std::vector<std::uint32_t>* declared_components) {
  MECOFF_EXPECTS(unoffloadable.size() == g.num_nodes());
  MECOFF_EXPECTS(declared_components == nullptr ||
                 declared_components->size() == g.num_nodes());

  ReferencePipeline out;
  // Line 1 of Algorithm 1: remove unoffloadable functions.
  out.offloadable = graph::remove_nodes(g, unoffloadable);

  // Lines 2–4: split into component sub-graphs. Connectivity defines
  // the split; declared software-component boundaries refine it (two
  // connected nodes of different declared components must not share a
  // sub-graph, so compression can never merge them).
  graph::ComponentLabels comps;
  if (declared_components == nullptr) {
    comps = graph::connected_components(out.offloadable.graph);
  } else {
    const graph::ComponentLabels connectivity =
        connected_components(out.offloadable.graph);
    // Dense relabeling of (declared, connectivity) pairs.
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t> remap;
    comps.component_of.resize(out.offloadable.graph.num_nodes());
    for (NodeId v = 0; v < out.offloadable.graph.num_nodes(); ++v) {
      const std::uint32_t declared =
          (*declared_components)[out.offloadable.to_parent[v]];
      const auto key = std::make_pair(declared, connectivity.component_of[v]);
      const auto [it, inserted] = remap.try_emplace(
          key, static_cast<std::uint32_t>(remap.size()));
      comps.component_of[v] = it->second;
      (void)inserted;
    }
    comps.count = static_cast<std::uint32_t>(remap.size());
  }
  const std::vector<std::vector<NodeId>> node_lists =
      graph::component_node_lists(comps);

  out.components.resize(node_lists.size());
  const auto process_component = [&](std::size_t c) {
    ReferenceComponent& result = out.components[c];
    result.component =
        graph::induced_subgraph(out.offloadable.graph, node_lists[c]);
    // Lines 6–15: propagate labels until an end condition fires.
    result.propagation = propagate_labels(result.component.graph, config);
    // Line 16: merge same-label directly-connected nodes.
    result.compression =
        compress_by_labels(result.component.graph, result.propagation.labels);
  };

  // "create new process" per sub-graph (Line 6). Inside a pooled
  // per-user solve this runs inline: users are the parallel level.
  parallel::for_each_index(pool, out.components.size(), process_component);
  return out;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_bitwise_equal(const ReferencePipeline& want,
                          const CompressionPipelineResult& got) {
  ASSERT_EQ(got.components.size(), want.components.size());
  for (std::size_t c = 0; c < want.components.size(); ++c) {
    SCOPED_TRACE("sub-graph " + std::to_string(c));
    const ReferenceComponent& w = want.components[c];
    const CompressedComponent& g = got.components[c];
    // Local ids: the induced sub-graph's, through the offloadable copy.
    ASSERT_EQ(g.nodes.size(), w.component.to_parent.size());
    for (std::size_t local = 0; local < g.nodes.size(); ++local)
      EXPECT_EQ(g.nodes[local],
                want.offloadable.to_parent[w.component.to_parent[local]]);

    EXPECT_EQ(g.propagation.labels, w.propagation.labels);
    EXPECT_EQ(g.propagation.rounds, w.propagation.rounds);
    EXPECT_EQ(g.propagation.num_labels, w.propagation.num_labels);
    ASSERT_EQ(g.propagation.update_rates.size(),
              w.propagation.update_rates.size());
    for (std::size_t r = 0; r < w.propagation.update_rates.size(); ++r)
      EXPECT_EQ(bits(g.propagation.update_rates[r]),
                bits(w.propagation.update_rates[r]));

    EXPECT_EQ(g.compression.super_of, w.compression.super_of);
    EXPECT_EQ(g.compression.members, w.compression.members);
    const WeightedGraph& gc = g.compression.compressed;
    const WeightedGraph& wc = w.compression.compressed;
    ASSERT_EQ(gc.num_nodes(), wc.num_nodes());
    for (NodeId v = 0; v < wc.num_nodes(); ++v)
      EXPECT_EQ(bits(gc.node_weight(v)), bits(wc.node_weight(v)));
    ASSERT_EQ(gc.num_edges(), wc.num_edges());
    for (std::size_t e = 0; e < wc.num_edges(); ++e) {
      EXPECT_EQ(gc.edges()[e].u, wc.edges()[e].u);
      EXPECT_EQ(gc.edges()[e].v, wc.edges()[e].v);
      EXPECT_EQ(bits(gc.edges()[e].weight), bits(wc.edges()[e].weight));
    }

    const CompressionStats& gs = g.compression.stats;
    const CompressionStats& ws = w.compression.stats;
    EXPECT_EQ(gs.original_nodes, ws.original_nodes);
    EXPECT_EQ(gs.original_edges, ws.original_edges);
    EXPECT_EQ(gs.compressed_nodes, ws.compressed_nodes);
    EXPECT_EQ(gs.compressed_edges, ws.compressed_edges);
    EXPECT_EQ(bits(gs.absorbed_edge_weight), bits(ws.absorbed_edge_weight));
  }
}

TEST(Pipeline, MatchesReferencePipelineBitwise) {
  parallel::ThreadPool pool(4);
  std::size_t disconnected_declared = 0;
  for (const bench::PaperScale scale :
       {bench::PaperScale{250, 1214}, bench::PaperScale{1000, 4912}}) {
    // make_user pins one UI cluster per generator component.
    const mec::UserApp user = bench::make_user(scale, 11);
    const std::size_t n = user.graph.num_nodes();
    // Declared components: none; all zero (what a served DSL app with
    // no component lines declares); and stripes of five ids, which cut
    // connected regions into declared pieces that are not connected.
    const std::vector<std::uint32_t> all_zero(n, 0);
    std::vector<std::uint32_t> striped(n);
    for (NodeId v = 0; v < n; ++v) striped[v] = (v / 5) % 3;
    const std::vector<const std::vector<std::uint32_t>*> declarations{
        nullptr, &all_zero, &striped};
    const std::vector<std::vector<bool>> masks{user.unoffloadable,
                                               std::vector<bool>(n, false)};
    ASSERT_GT(std::count(masks[0].begin(), masks[0].end(), true), 0);
    for (std::size_t m = 0; m < masks.size(); ++m) {
      for (std::size_t d = 0; d < declarations.size(); ++d) {
        for (const double threshold : {5.0, 10.0, 30.0}) {
          for (parallel::ThreadPool* workers :
               {static_cast<parallel::ThreadPool*>(nullptr), &pool}) {
            SCOPED_TRACE("n=" + std::to_string(n) +
                         (m == 0 ? " pinned" : " unpinned") +
                         " declared#" + std::to_string(d) +
                         " w=" + std::to_string(threshold) +
                         (workers != nullptr ? " pool" : " serial"));
            PropagationConfig config;
            config.coupling_threshold = threshold;
            const ReferencePipeline want = reference_compress_application(
                user.graph, masks[m], config, workers, declarations[d]);
            const CompressionPipelineResult got = compress_application(
                user.graph, masks[m], config, workers, declarations[d]);
            expect_bitwise_equal(want, got);
            if (declarations[d] == &striped)
              for (const ReferenceComponent& comp : want.components)
                if (!graph::is_connected(comp.component.graph))
                  ++disconnected_declared;
          }
        }
      }
    }
  }
  // The striped labelling did split connected regions.
  EXPECT_GT(disconnected_declared, 0u);
}

}  // namespace
}  // namespace mecoff::lpa
