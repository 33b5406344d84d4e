// Property-based suites (parameterized gtest): invariants that must
// hold across randomized workloads — the DESIGN.md §5 list.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "kl/kernighan_lin.hpp"
#include "linalg/laplacian.hpp"
#include "lpa/pipeline.hpp"
#include "mec/costs.hpp"
#include "mec/greedy.hpp"
#include "mec/offloader.hpp"
#include "mincut/bipartitioner.hpp"
#include "mincut/dinic.hpp"
#include "mincut/stoer_wagner.hpp"
#include "spectral/bipartitioner.hpp"
#include "spectral/fiedler.hpp"
#include "testlib/edmonds_karp.hpp"
#include "testlib/linalg_oracles.hpp"

namespace mecoff {
namespace {

struct WorkloadCase {
  std::uint64_t seed;
  std::size_t nodes;
  std::size_t edges;
  std::size_t components;
};

std::vector<WorkloadCase> workload_cases() {
  std::vector<WorkloadCase> cases;
  std::size_t idx = 0;
  for (const std::size_t nodes : {20u, 60u, 140u}) {
    for (const std::uint64_t seed : {101ULL, 202ULL, 303ULL}) {
      cases.push_back(WorkloadCase{seed + idx, nodes, nodes * 4,
                                   1 + idx % 3});
      ++idx;
    }
  }
  return cases;
}

graph::WeightedGraph make_graph(const WorkloadCase& c) {
  graph::NetgenParams p;
  p.nodes = c.nodes;
  p.edges = c.edges;
  p.components = c.components;
  p.seed = c.seed;
  return graph::netgen_style(p);
}

class WorkloadProperty : public ::testing::TestWithParam<WorkloadCase> {};

// ---- Laplacian / Theorem 2 ------------------------------------------------

TEST_P(WorkloadProperty, Theorem2HoldsForRandomIndicators) {
  const graph::WeightedGraph g = make_graph(GetParam());
  Rng rng(GetParam().seed ^ 0xabc);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> q(g.num_nodes());
    std::vector<std::uint8_t> side(g.num_nodes());
    for (std::size_t i = 0; i < q.size(); ++i) {
      side[i] = rng.bernoulli(0.5) ? 1 : 0;
      q[i] = side[i] ? 1.0 : -1.0;
    }
    const double lhs = linalg::laplacian_quadratic_form(g, q) / 4.0;
    const double rhs = graph::cut_weight(g, side);
    EXPECT_NEAR(lhs, rhs, 1e-9 * (1.0 + rhs));
  }
}

TEST_P(WorkloadProperty, LaplacianRowsSumToZero) {
  const linalg::SparseMatrix lap = linalg::laplacian(make_graph(GetParam()));
  const linalg::Vec ones(lap.cols(), 1.0);
  linalg::Vec row_sums(lap.rows());
  lap.multiply_into(ones, row_sums);
  for (const double sum : row_sums) EXPECT_NEAR(sum, 0.0, 1e-10);
}

TEST_P(WorkloadProperty, LaplacianQuadraticFormNonNegative) {
  const graph::WeightedGraph g = make_graph(GetParam());
  Rng rng(GetParam().seed ^ 0xdef);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> q(g.num_nodes());
    for (double& v : q) v = rng.uniform(-3.0, 3.0);
    EXPECT_GE(linalg::laplacian_quadratic_form(g, q), -1e-9);
  }
}

// ---- Compression -----------------------------------------------------------

TEST_P(WorkloadProperty, CompressionConservesWeights) {
  const graph::WeightedGraph g = make_graph(GetParam());
  const std::vector<bool> pinned(g.num_nodes(), false);
  lpa::PropagationConfig config;
  config.coupling_threshold = 10.0;
  const lpa::CompressionPipelineResult r =
      lpa::compress_application(g, pinned, config);
  double node_weight = 0.0;
  double edge_weight = 0.0;
  double absorbed = 0.0;
  double comp_edge_weight = 0.0;
  // sub_of[v] = the sub-graph holding original node v.
  std::vector<std::size_t> sub_of(g.num_nodes(), r.components.size());
  for (std::size_t c = 0; c < r.components.size(); ++c)
    for (const graph::NodeId v : r.components[c].nodes) sub_of[v] = c;
  for (const auto& comp : r.components) {
    node_weight += comp.compression.compressed.total_node_weight();
    comp_edge_weight += comp.compression.compressed.total_edge_weight();
    absorbed += comp.compression.stats.absorbed_edge_weight;
  }
  // Each sub-graph's edge weight, read from the user's graph: the edges
  // with both ends in one sub-graph.
  for (const graph::Edge& e : g.edges())
    if (sub_of[e.u] == sub_of[e.v] && sub_of[e.u] < r.components.size())
      edge_weight += e.weight;
  EXPECT_NEAR(node_weight, g.total_node_weight(), 1e-6);
  EXPECT_NEAR(comp_edge_weight + absorbed, edge_weight, 1e-6);
}

TEST_P(WorkloadProperty, CompressionNeverIncreasesSize) {
  const graph::WeightedGraph g = make_graph(GetParam());
  const std::vector<bool> pinned(g.num_nodes(), false);
  lpa::PropagationConfig config;
  config.coupling_threshold = 10.0;
  const lpa::CompressionStats stats =
      lpa::compress_application(g, pinned, config).aggregate_stats();
  EXPECT_LE(stats.compressed_nodes, stats.original_nodes);
  EXPECT_LE(stats.compressed_edges, stats.original_edges);
}

// ---- Cut algorithms ---------------------------------------------------------

TEST_P(WorkloadProperty, AllCuttersReturnConsistentCutWeights) {
  const graph::WeightedGraph g = make_graph(GetParam());
  spectral::SpectralBipartitioner spectral_cutter;
  mincut::MaxFlowBipartitioner flow_cutter;
  kl::KernighanLinBipartitioner kl_cutter;
  for (graph::Bipartitioner* cutter :
       {static_cast<graph::Bipartitioner*>(&spectral_cutter),
        static_cast<graph::Bipartitioner*>(&flow_cutter),
        static_cast<graph::Bipartitioner*>(&kl_cutter)}) {
    const graph::Bipartition cut = cutter->bipartition(g);
    ASSERT_TRUE(graph::is_valid_partition(g, cut.side)) << cutter->name();
    EXPECT_NEAR(cut.cut_weight, graph::cut_weight(g, cut.side),
                1e-8 * (1.0 + cut.cut_weight))
        << cutter->name();
  }
}

TEST_P(WorkloadProperty, MaxFlowDualityAndSolverAgreement) {
  const graph::WeightedGraph g = make_graph(GetParam());
  if (!graph::is_connected(g)) GTEST_SKIP() << "connected instances only";
  Rng rng(GetParam().seed ^ 0x111);
  const auto s = static_cast<graph::NodeId>(rng.index(g.num_nodes()));
  auto t = static_cast<graph::NodeId>(rng.index(g.num_nodes()));
  if (t == s) t = (s + 1) % static_cast<graph::NodeId>(g.num_nodes());

  mincut::FlowNetwork net_ek = mincut::FlowNetwork::from_graph(g);
  mincut::FlowNetwork net_di = mincut::FlowNetwork::from_graph(g);
  const double ek = mincut::edmonds_karp(net_ek, s, t).flow_value;
  const double di = mincut::dinic(net_di, s, t).flow_value;
  EXPECT_NEAR(ek, di, 1e-7 * (1.0 + ek));
  const graph::Bipartition cut = mincut::min_st_cut_dinic(g, s, t);
  EXPECT_NEAR(cut.cut_weight, di, 1e-7 * (1.0 + di));
}

TEST_P(WorkloadProperty, StoerWagnerLowerBoundsHeuristicCutters) {
  const graph::WeightedGraph g = make_graph(GetParam());
  if (g.num_nodes() > 80) GTEST_SKIP() << "SW oracle kept small";
  const double optimal = mincut::stoer_wagner(g).cut_weight;
  spectral::SpectralBipartitioner spectral_cutter;
  EXPECT_GE(spectral_cutter.bipartition(g).cut_weight, optimal - 1e-9);
  mincut::MaxFlowBipartitioner flow_cutter;
  EXPECT_GE(flow_cutter.bipartition(g).cut_weight, optimal - 1e-9);
}

TEST_P(WorkloadProperty, FiedlerValuePositiveOnConnectedGraphs) {
  const graph::WeightedGraph g = make_graph(GetParam());
  if (!graph::is_connected(g)) GTEST_SKIP();
  const spectral::FiedlerResult f = spectral::fiedler_pair(g);
  EXPECT_GT(f.value, 0.0);
}

TEST_P(WorkloadProperty, SpectralCutWithinMoharBoundOfJacobiLambda2) {
  // The workload-scale companion of tests/differential_test.cpp: graphs
  // too big to brute-force still obey Mohar's sweep-cut guarantee
  //   W_sweep ≤ sqrt(λ₂ (2Δ − λ₂)) · n / 2
  // with λ₂ taken from the dense cyclic-Jacobi oracle, NOT from the
  // iterative solver under test (which must agree with it to 1e-5).
  const graph::WeightedGraph g = make_graph(GetParam());
  if (!graph::is_connected(g)) GTEST_SKIP() << "connected instances only";
  const std::size_t n = g.num_nodes();

  const linalg::JacobiResult eig =
      linalg::jacobi_eigen(linalg::dense_laplacian(g));
  ASSERT_TRUE(eig.converged);
  const double lambda2 = eig.values[1];
  ASSERT_GT(lambda2, 0.0);

  spectral::SpectralBipartitioner cutter;
  const graph::Bipartition cut = cutter.bipartition(g);
  if (!cutter.last_converged()) GTEST_SKIP() << "eigensolver gave up";
  EXPECT_NEAR(cutter.last_fiedler_value(), lambda2, 1e-5 * (1.0 + lambda2));

  double delta = 0.0;
  for (graph::NodeId v = 0; v < n; ++v) {
    double degree = 0.0;
    for (const graph::Adjacency& adj : g.neighbors(v)) degree += adj.weight;
    delta = std::max(delta, degree);
  }
  const double slack = 2.0 * delta - lambda2;  // ≥ 0 by Gershgorin
  ASSERT_GE(slack, -1e-9 * (1.0 + delta));
  const double mohar = std::sqrt(std::max(0.0, lambda2 * slack)) *
                       static_cast<double>(n) / 2.0;
  EXPECT_LE(cut.cut_weight, mohar * (1.0 + 1e-9) + 1e-9)
      << "n=" << n << " λ₂=" << lambda2 << " Δ=" << delta;
}

// ---- Scheme generation -------------------------------------------------------

TEST_P(WorkloadProperty, GreedyObjectiveMatchesEvaluateAndDecreases) {
  const graph::WeightedGraph g = make_graph(GetParam());
  mec::SystemParams params;
  params.transmit_power = 8.0;
  params.bandwidth = 15.0;
  params.mobile_capacity = 5.0;
  params.server_capacity = 300.0;
  mec::UserApp user;
  user.graph = g;
  mec::MecSystem system{params, {user}};

  mec::PipelineOptions opts;
  opts.propagation.coupling_threshold = 10.0;
  mec::PipelineOffloader offloader(opts);
  const mec::OffloadingScheme scheme = offloader.solve(system);
  EXPECT_TRUE(scheme.valid_for(system));
  EXPECT_NEAR(offloader.last_stats().final_objective,
              mec::evaluate(system, scheme).objective(),
              1e-6 * (1.0 + offloader.last_stats().final_objective));
}

TEST_P(WorkloadProperty, PipelineNeverWorseThanAllLocal) {
  const graph::WeightedGraph g = make_graph(GetParam());
  mec::SystemParams params;
  params.transmit_power = 8.0;
  params.bandwidth = 15.0;
  params.mobile_capacity = 5.0;
  params.server_capacity = 300.0;
  mec::UserApp user;
  user.graph = g;
  mec::MecSystem system{params, {user}};
  for (const mec::CutBackend backend :
       {mec::CutBackend::kSpectral, mec::CutBackend::kMaxFlow,
        mec::CutBackend::kKernighanLin}) {
    mec::PipelineOptions opts;
    opts.backend = backend;
    opts.propagation.coupling_threshold = 10.0;
    mec::PipelineOffloader offloader(opts);
    const double obj =
        mec::evaluate(system, offloader.solve(system)).objective();
    const double all_local =
        mec::evaluate(system, mec::OffloadingScheme::all_local(system))
            .objective();
    EXPECT_LE(obj, all_local + 1e-9) << offloader.name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    NetgenWorkloads, WorkloadProperty, ::testing::ValuesIn(workload_cases()),
    [](const ::testing::TestParamInfo<WorkloadCase>& param_info) {
      std::string name(1, 'n');
      name += std::to_string(param_info.param.nodes);
      name += "_c";
      name += std::to_string(param_info.param.components);
      name += "_s";
      name += std::to_string(param_info.param.seed);
      return name;
    });

// ---- LPA threshold sweep -----------------------------------------------------

class ThresholdProperty : public ::testing::TestWithParam<double> {};

TEST_P(ThresholdProperty, CompressionMonotoneInThreshold) {
  // Higher thresholds merge less: compressed size is non-decreasing in w.
  graph::NetgenParams p;
  p.nodes = 120;
  p.edges = 500;
  p.seed = 404;
  const graph::WeightedGraph g = graph::netgen_style(p);
  const std::vector<bool> pinned(g.num_nodes(), false);

  lpa::PropagationConfig low;
  low.coupling_threshold = GetParam();
  lpa::PropagationConfig high;
  high.coupling_threshold = GetParam() * 2.0;

  const std::size_t nodes_low =
      lpa::compress_application(g, pinned, low).aggregate_stats()
          .compressed_nodes;
  const std::size_t nodes_high =
      lpa::compress_application(g, pinned, high).aggregate_stats()
          .compressed_nodes;
  EXPECT_LE(nodes_low, nodes_high);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ThresholdProperty,
                         ::testing::Values(1.0, 4.0, 8.0, 16.0, 32.0));

// ---- Random scheme evaluation stability ---------------------------------------

class SchemeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchemeProperty, EvaluateIsDeterministicAndDecomposes) {
  graph::NetgenParams p;
  p.nodes = 80;
  p.edges = 320;
  p.seed = GetParam();
  mec::UserApp user;
  user.graph = graph::netgen_style(p);
  mec::SystemParams params;
  mec::MecSystem system{params, {user, user}};

  Rng rng(GetParam());
  mec::OffloadingScheme scheme = mec::OffloadingScheme::all_local(system);
  for (std::size_t u = 0; u < 2; ++u)
    for (graph::NodeId v = 0; v < user.graph.num_nodes(); ++v)
      if (rng.bernoulli(0.4))
        scheme.placement[u][v] = mec::Placement::kRemote;

  const mec::SystemCost a = mec::evaluate(system, scheme);
  const mec::SystemCost b = mec::evaluate(system, scheme);
  EXPECT_DOUBLE_EQ(a.objective(), b.objective());
  EXPECT_NEAR(a.total_energy, a.local_energy() + a.transmit_energy(), 1e-9);

  // Per-user times recompose into the total.
  double t = 0.0;
  for (const mec::UserCost& u : a.users)
    t += u.local_compute_time + u.remote_compute_time + u.wait_time +
         u.transmit_time;
  EXPECT_NEAR(t, a.total_time, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchemeProperty,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

}  // namespace
}  // namespace mecoff
