// Tests for graph validation, degree histograms, profiles, and the DSL
// component-reset round trip.
#include <gtest/gtest.h>

#include "appmodel/dsl_parser.hpp"
#include "graph/generators.hpp"
#include "graph/validation.hpp"
#include "lpa/compressor.hpp"
#include "lpa/propagation.hpp"
#include "mec/profiles.hpp"
#include "testlib/test_graphs.hpp"

namespace mecoff {
namespace {

TEST(Validation, BuilderOutputIsAlwaysValid) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    graph::NetgenParams p;
    p.nodes = 120;
    p.edges = 500;
    p.seed = seed;
    const graph::ValidationReport report =
        graph::validate(graph::netgen_style(p));
    EXPECT_TRUE(report.ok) << (report.problems.empty()
                                   ? ""
                                   : report.problems.front());
  }
  EXPECT_TRUE(graph::validate(graph::WeightedGraph{}).ok);
  EXPECT_TRUE(graph::validate(graph::complete_graph(6)).ok);
}

TEST(Validation, TransformedGraphsStayValid) {
  const graph::WeightedGraph g = graph::barbell_graph(5, 1.0, 8.0);
  lpa::PropagationConfig config;
  config.coupling_threshold = 4.0;
  const lpa::PropagationResult labels = lpa::propagate_labels(g, config);
  const lpa::CompressionResult comp =
      lpa::compress_by_labels(g, labels.labels);
  EXPECT_TRUE(graph::validate(comp.compressed).ok);
}

TEST(Validation, DegreeHistogram) {
  const graph::WeightedGraph star = graph::star_graph(5);
  const std::vector<std::size_t> hist = graph::degree_histogram(star);
  ASSERT_EQ(hist.size(), 5u);  // max degree 4
  EXPECT_EQ(hist[1], 4u);      // four leaves
  EXPECT_EQ(hist[4], 1u);      // one hub
  EXPECT_TRUE(graph::degree_histogram(graph::WeightedGraph{}).empty());
}

TEST(Profiles, AllPresetsAreValidAndDistinct) {
  const auto& profiles = mec::all_profiles();
  ASSERT_GE(profiles.size(), 4u);
  for (const mec::NamedProfile& p : profiles) {
    EXPECT_TRUE(p.params.valid()) << p.name;
  }
  // Key deployment ratios differ: Wi-Fi radio cheaper than LTE per bit.
  mec::SystemParams wifi;
  mec::SystemParams lte;
  ASSERT_TRUE(mec::find_profile("wifi_campus", wifi));
  ASSERT_TRUE(mec::find_profile("lte_smallcell", lte));
  EXPECT_LT(wifi.transmit_power / wifi.bandwidth,
            lte.transmit_power / lte.bandwidth);
}

TEST(DslComponentReset, RoundTripsAnonymousAfterNamed) {
  // Function order: anonymous, named, anonymous again — only
  // expressible with the `component -` reset.
  appmodel::Application app("mixed");
  app.add_function({"a", 1, false, ""});
  app.add_function({"b", 2, false, "core"});
  app.add_function({"c", 3, false, ""});
  const std::string dsl = appmodel::to_app_dsl(app);
  EXPECT_NE(dsl.find("component -"), std::string::npos);
  const Result<appmodel::Application> round =
      appmodel::parse_app_dsl(dsl);
  ASSERT_TRUE(round.ok()) << (round.ok() ? "" : round.error().message);
  EXPECT_EQ(round.value().function(0).component, "");
  EXPECT_EQ(round.value().function(1).component, "core");
  EXPECT_EQ(round.value().function(2).component, "");
}

TEST(DslComponentReset, DashParsesAsAnonymous) {
  const auto r = appmodel::parse_app_dsl(
      "app X\ncomponent ui\nfunction a compute=1\ncomponent -\n"
      "function b compute=1\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().function(1).component, "");
}

}  // namespace
}  // namespace mecoff
