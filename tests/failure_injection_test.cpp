// Failure injection: every public API fed hostile input must fail
// CLEANLY — a typed exception or an error Result, never UB, never a
// silent wrong answer. These tests document the failure contract.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "appmodel/dsl_parser.hpp"
#include "common/contracts.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/subgraph.hpp"
#include "graph/validation.hpp"
#include "lpa/compressor.hpp"
#include "lpa/pipeline.hpp"
#include "mec/costs.hpp"
#include "mec/greedy.hpp"
#include "mec/multiserver.hpp"
#include "mec/offloader.hpp"
#include "mec/profiles.hpp"
#include "sim/engine.hpp"
#include "sim/fault_script.hpp"
#include "sim/resources.hpp"
#include "testlib/test_graphs.hpp"

namespace mecoff {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(FailureInjection, GraphBuilderRejectsNonFiniteWeights) {
  graph::GraphBuilder b;
  EXPECT_THROW(b.add_node(kNan), PreconditionError);
  EXPECT_THROW(b.add_node(kInf), PreconditionError);
  b.add_node(1.0);
  b.add_node(1.0);
  EXPECT_THROW(b.add_edge(0, 1, kNan), PreconditionError);
  EXPECT_THROW(b.add_edge(0, 1, -kInf), PreconditionError);
  EXPECT_THROW(b.set_node_weight(0, kNan), PreconditionError);
}

TEST(FailureInjection, GeneratorsRejectContradictoryParams) {
  graph::NetgenParams p;
  p.nodes = 5;
  p.components = 10;  // more components than nodes
  EXPECT_THROW(graph::netgen_style(p), PreconditionError);
  p = graph::NetgenParams{};
  p.min_node_weight = 10.0;
  p.max_node_weight = 1.0;  // inverted range
  EXPECT_THROW(graph::netgen_style(p), PreconditionError);
  p = graph::NetgenParams{};
  p.cluster_size = 0;
  EXPECT_THROW(graph::netgen_style(p), PreconditionError);
}

TEST(FailureInjection, EdgeListParserSurvivesGarbageBytes) {
  // Arbitrary junk must produce an error Result, not a crash.
  for (const char* junk :
       {"nodes x\n", "nodes 2\nedge 0 1\n", "nodes 2\nedge 0 1 1e999x\n",
        "nodes -5\n", "\x01\x02\x03", "nodes 2\nnode 1 nan... \n"}) {
    const auto r = graph::parse_edge_list(junk);
    EXPECT_FALSE(r.ok()) << junk;
  }
}

TEST(FailureInjection, ValidatorFlagsHandCraftedCorruption) {
  // The validator itself must catch what a buggy transformation would
  // produce; here the "corruption" is a legal-but-wrong label vector
  // applied downstream instead (the graph type itself is immutable, so
  // direct corruption is not constructible — which is the point).
  const graph::WeightedGraph good = graph::barbell_graph(3, 1.0, 5.0);
  EXPECT_TRUE(graph::validate(good).ok);

  // Compressor with an undersized label vector must throw, not read OOB.
  EXPECT_THROW(lpa::compress_by_labels(good, {0, 1}), PreconditionError);
}

TEST(FailureInjection, SubgraphRejectsOutOfRangeAndDuplicates) {
  const graph::WeightedGraph g = graph::path_graph(4);
  const std::vector<graph::NodeId> bad_range{0, 9};
  EXPECT_THROW(graph::induced_subgraph(g, bad_range), PreconditionError);
  const std::vector<graph::NodeId> dup{1, 1};
  EXPECT_THROW(graph::induced_subgraph(g, dup), PreconditionError);
  EXPECT_THROW(graph::remove_nodes(g, std::vector<bool>(2, false)),
               PreconditionError);
}

TEST(FailureInjection, PipelineRejectsMismatchedMasks) {
  const graph::WeightedGraph g = graph::path_graph(4);
  EXPECT_THROW(lpa::compress_application(g, std::vector<bool>(3, false),
                                         lpa::PropagationConfig{}),
               PreconditionError);
  const std::vector<bool> mask(4, false);
  const std::vector<std::uint32_t> comps(2, 0);  // wrong size
  EXPECT_THROW(lpa::compress_application(g, mask, lpa::PropagationConfig{},
                                         nullptr, &comps),
               PreconditionError);
}

TEST(FailureInjection, CostModelRejectsBrokenSystems) {
  mec::UserApp app;
  app.graph = graph::path_graph(2);
  mec::SystemParams bad;
  bad.bandwidth = 0.0;
  mec::MecSystem broken{bad, {app}};
  EXPECT_THROW(
      mec::evaluate(broken, mec::OffloadingScheme::all_local(broken)),
      PreconditionError);

  mec::MecSystem ok{mec::SystemParams{}, {app}};
  mec::OffloadingScheme wrong_shape;
  wrong_shape.placement = {{mec::Placement::kLocal}};  // 1 node, need 2
  EXPECT_THROW(mec::evaluate(ok, wrong_shape), PreconditionError);
}

TEST(FailureInjection, GreedyRejectsOutOfRangePartNodes) {
  mec::UserApp app;
  app.graph = graph::path_graph(3);
  mec::MecSystem system{mec::SystemParams{}, {app}};
  std::vector<mec::Part> parts(1);
  parts[0].nodes = {7};  // out of range
  parts[0].weight = 1.0;
  const std::vector<std::span<const mec::Part>> one_list{parts};
  EXPECT_THROW(mec::generate_scheme(system, one_list), PreconditionError);

  parts[0].nodes = {0};
  // One list per user: two lists for one user name a user that is not
  // there.
  const std::vector<std::span<const mec::Part>> two_lists{parts, parts};
  EXPECT_THROW(mec::generate_scheme(system, two_lists), PreconditionError);
}

TEST(FailureInjection, GreedyRejectsPinnedNodesInParts) {
  // Parts cover only offloadable nodes: a part holding a pinned node
  // would otherwise yield a scheme that offloads that function.
  mec::UserApp app;
  app.graph = graph::path_graph(3);
  app.unoffloadable = {false, true, false};
  mec::MecSystem system{mec::SystemParams{}, {app, app}};
  std::vector<mec::Part> parts(1);
  parts[0].nodes = {0, 2};
  parts[0].weight = 2.0;
  std::vector<std::span<const mec::Part>> lists{parts, parts};
  EXPECT_TRUE(mec::generate_scheme(system, lists).scheme.valid_for(system));

  std::vector<mec::Part> pinned = parts;
  pinned[0].nodes.push_back(1);
  pinned[0].weight += 1.0;
  lists = {pinned, pinned};
  EXPECT_THROW(mec::generate_scheme(system, lists), PreconditionError);
}

TEST(FailureInjection, GreedyRejectsPinnedNodesInReplicaParts) {
  // A replica copies its prototype's set-up, whose node checks read the
  // prototype's mask: a replica pinning a node of the shared list must
  // be refused all the same, not handed a scheme offloading that node.
  mec::UserApp free_app;
  free_app.graph = graph::path_graph(3);
  mec::UserApp pinning = free_app;  // the same graph payload
  pinning.unoffloadable = {true, false, false};
  const mec::MecSystem system{mec::SystemParams{}, {free_app, pinning}};
  std::vector<mec::Part> parts(1);
  parts[0].nodes = {0, 1, 2};
  parts[0].weight = 3.0;
  const std::vector<std::span<const mec::Part>> lists{parts, parts};
  EXPECT_THROW(mec::generate_scheme(system, lists), PreconditionError);
}

TEST(FailureInjection, SimEngineRejectsTimeTravel) {
  sim::SimEngine engine;
  EXPECT_THROW(engine.schedule_after(-1.0, [] {}), PreconditionError);
  EXPECT_THROW(sim::FifoResource(engine, 0.0), PreconditionError);
  EXPECT_THROW(sim::FifoResource(engine, -3.0), PreconditionError);
  sim::FifoResource server(engine, 1.0);
  EXPECT_THROW(server.submit(-1.0, nullptr), PreconditionError);
}

TEST(FailureInjection, DslParserNeverThrowsOnTextInput) {
  // The parser promises Result errors for ANY text, including binary junk.
  for (const char* junk :
       {"\xff\xfe\x00", "app\n\n\n", "call a b data=2\n",
        "function  compute=1\n", "app X\nfunction f compute=1e999\n"}) {
    EXPECT_NO_THROW({
      const auto r = appmodel::parse_app_dsl(junk);
      (void)r.ok();
    }) << junk;
  }
}

TEST(FailureInjection, MultiServerRejectsBrokenSpecs) {
  mec::MultiServerSystem system;
  system.users.push_back(
      mec::UserApp{graph::path_graph(2), {}, {}});
  // No servers.
  EXPECT_THROW(mec::MultiServerOffloader{}.solve(system),
               PreconditionError);
  system.servers.push_back(mec::ServerSpec{-1.0, 10.0, 1.0});
  EXPECT_THROW(mec::MultiServerOffloader{}.solve(system),
               PreconditionError);
}

TEST(FailureInjection, FaultScriptRejectsHostileTimesAndSeverities) {
  sim::FaultScript script;
  EXPECT_THROW(script.crash_server(-0.001, 0), PreconditionError);
  EXPECT_THROW(script.crash_server(kNan, 0), PreconditionError);
  EXPECT_THROW(script.crash_server(kInf, 0), PreconditionError);
  EXPECT_THROW(script.degrade_link(1.0, 0, kNan), PreconditionError);
  EXPECT_THROW(script.degrade_link(1.0, 0, 1.0), PreconditionError);
  EXPECT_TRUE(script.empty());

  // Out-of-order adds are LEGAL and normalized by ordered().
  script.crash_server(9.0, 0).recover_server(3.0, 0);
  const auto ordered = script.ordered();
  EXPECT_DOUBLE_EQ(ordered.front().time, 3.0);
  EXPECT_DOUBLE_EQ(ordered.back().time, 9.0);
}

TEST(FailureInjection, FaultScriptParserSurvivesGarbageBytes) {
  for (const char* junk :
       {"at nan crash 0\n", "at 1e999 crash 0\n", "at -3 degrade 0 0.5\n",
        "at 1 degrade 0 nan\n", "at\n", "\xff\xfe garbage",
        "at 1 crash zero\n"}) {
    const auto r = sim::FaultScript::parse(junk);
    EXPECT_FALSE(r.ok()) << junk;
    EXPECT_FALSE(r.error().message.empty());
  }
}

TEST(FailureInjection, ZeroDeadlineDegradesGracefully) {
  mec::UserApp user;
  user.graph = graph::path_graph(8);
  mec::MecSystem system{mec::SystemParams{}, {user}};
  mec::PipelineOptions options;
  options.deadline.seconds = 0.0;  // pathological budget, legal input
  mec::PipelineOffloader offloader(options);
  const mec::OffloadingScheme scheme = offloader.solve(system);
  EXPECT_TRUE(scheme.valid_for(system));
  EXPECT_TRUE(offloader.last_stats().deadline_expired);
}

TEST(FailureInjection, ProfileLookupFailsClosed) {
  mec::SystemParams p;
  p.bandwidth = 123.0;  // canary
  EXPECT_FALSE(mec::find_profile("no_such_profile", p));
  EXPECT_DOUBLE_EQ(p.bandwidth, 123.0);  // untouched on failure
  EXPECT_TRUE(mec::find_profile("wifi_campus", p));
  EXPECT_TRUE(p.valid());
}

}  // namespace
}  // namespace mecoff
