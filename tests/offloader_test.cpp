// Unit tests for the end-to-end offloaders (pipeline with the three cut
// backends plus the reference solvers).
#include <gtest/gtest.h>

#include <cstdint>

#include "appmodel/synthetic_apps.hpp"
#include "graph/generators.hpp"
#include "mec/costs.hpp"
#include "mec/offloader.hpp"
#include "testlib/mec_oracles.hpp"
#include "testlib/test_graphs.hpp"

namespace mecoff::mec {
namespace {

SystemParams default_params() {
  SystemParams p;
  p.mobile_power = 1.0;
  p.transmit_power = 8.0;
  p.bandwidth = 50.0;
  p.mobile_capacity = 5.0;
  p.server_capacity = 500.0;
  return p;
}

UserApp app_from(const appmodel::Application& app) {
  UserApp user;
  user.graph = app.to_graph();
  user.unoffloadable = app.unoffloadable_mask();
  user.components = app.component_ids();
  return user;
}

UserApp netgen_user(std::uint64_t seed, std::size_t nodes = 120) {
  graph::NetgenParams p;
  p.nodes = nodes;
  p.edges = nodes * 4;
  p.seed = seed;
  UserApp user;
  user.graph = graph::netgen_style(p);
  return user;
}

PipelineOptions options_for(CutBackend backend) {
  PipelineOptions opts;
  opts.backend = backend;
  opts.propagation.coupling_threshold = 10.0;
  return opts;
}

TEST(PipelineOffloader, ProducesValidSchemes) {
  MecSystem system{default_params(),
                   {app_from(appmodel::make_face_recognition_app())}};
  for (const CutBackend backend :
       {CutBackend::kSpectral, CutBackend::kMaxFlow,
        CutBackend::kKernighanLin}) {
    PipelineOffloader offloader(options_for(backend));
    const OffloadingScheme scheme = offloader.solve(system);
    EXPECT_TRUE(scheme.valid_for(system)) << offloader.name();
  }
}

TEST(PipelineOffloader, Names) {
  EXPECT_EQ(PipelineOffloader(options_for(CutBackend::kSpectral)).name(),
            "spectral");
  EXPECT_EQ(PipelineOffloader(options_for(CutBackend::kMaxFlow)).name(),
            "maxflow");
  EXPECT_EQ(PipelineOffloader(options_for(CutBackend::kKernighanLin)).name(),
            "kl");
}

TEST(PipelineOffloader, PinnedFunctionsStayLocal) {
  const appmodel::Application app = appmodel::make_face_recognition_app();
  MecSystem system{default_params(), {app_from(app)}};
  PipelineOffloader offloader(options_for(CutBackend::kSpectral));
  const OffloadingScheme scheme = offloader.solve(system);
  for (std::size_t i = 0; i < app.num_functions(); ++i) {
    if (app.function(i).unoffloadable) {
      EXPECT_EQ(scheme.placement[0][i], Placement::kLocal)
          << app.function(i).name;
    }
  }
}

TEST(PipelineOffloader, BeatsNaiveReferenceSolvers) {
  MecSystem system{default_params(), {netgen_user(1), netgen_user(2)}};
  PipelineOffloader spectral(options_for(CutBackend::kSpectral));
  const double obj =
      evaluate(system, spectral.solve(system)).objective();

  AllLocalOffloader all_local;
  AllRemoteOffloader all_remote;
  RandomOffloader random;
  EXPECT_LE(obj, evaluate(system, all_local.solve(system)).objective() + 1e-9);
  EXPECT_LE(obj,
            evaluate(system, all_remote.solve(system)).objective() + 1e-9);
  EXPECT_LE(obj, evaluate(system, random.solve(system)).objective() + 1e-9);
}

TEST(PipelineOffloader, StatsArePopulated) {
  MecSystem system{default_params(), {netgen_user(3)}};
  PipelineOffloader offloader(options_for(CutBackend::kSpectral));
  (void)offloader.solve(system);
  const PipelineOffloader::SolveStats& stats = offloader.last_stats();
  EXPECT_GT(stats.compression.original_nodes, 0u);
  EXPECT_GT(stats.num_parts, 0u);
  EXPECT_LT(stats.compression.compressed_nodes,
            stats.compression.original_nodes);
  EXPECT_GT(stats.final_objective, 0.0);
}

TEST(PipelineOffloader, IdenticalUserPeriodMatchesBruteForce) {
  // 6 users cycling over 2 distinct graphs: the deduplicated solve must
  // produce exactly the same scheme as the naive one.
  const std::vector<UserApp> pool{netgen_user(10, 60), netgen_user(11, 60)};
  const MecSystem system =
      make_uniform_system(default_params(), pool, 6);

  PipelineOptions naive_opts = options_for(CutBackend::kSpectral);
  PipelineOffloader naive(naive_opts);
  const OffloadingScheme brute = naive.solve(system);

  PipelineOptions dedup_opts = naive_opts;
  dedup_opts.identical_user_period = pool.size();
  PipelineOffloader dedup(dedup_opts);
  const OffloadingScheme fast = dedup.solve(system);

  ASSERT_EQ(brute.placement.size(), fast.placement.size());
  for (std::size_t u = 0; u < brute.placement.size(); ++u)
    EXPECT_EQ(brute.placement[u], fast.placement[u]) << "user " << u;
}

TEST(PipelineOffloader, MultiUserSolveScalesAndStaysValid) {
  const std::vector<UserApp> pool{netgen_user(20, 80), netgen_user(21, 80),
                                  netgen_user(22, 80)};
  const MecSystem system =
      make_uniform_system(default_params(), pool, 40);
  PipelineOptions opts = options_for(CutBackend::kSpectral);
  opts.identical_user_period = pool.size();
  PipelineOffloader offloader(opts);
  const OffloadingScheme scheme = offloader.solve(system);
  EXPECT_TRUE(scheme.valid_for(system));
  EXPECT_EQ(scheme.placement.size(), 40u);
}

// Solves `system` serially and on a pool; both must agree on every
// result a caller can observe.
void expect_pooled_matches_serial(const MecSystem& system,
                                  const PipelineOptions& serial_opts) {
  parallel::ThreadPool pool(3);
  PipelineOptions pool_opts = serial_opts;
  pool_opts.pool = &pool;
  PipelineOffloader serial(serial_opts);
  PipelineOffloader pooled(pool_opts);
  const OffloadingScheme a = serial.solve(system);
  const OffloadingScheme b = pooled.solve(system);
  EXPECT_EQ(a.placement, b.placement);
  const PipelineOffloader::SolveStats& sa = serial.last_stats();
  const PipelineOffloader::SolveStats& sb = pooled.last_stats();
  EXPECT_EQ(sa.final_objective, sb.final_objective);
  EXPECT_EQ(sa.num_parts, sb.num_parts);
  EXPECT_EQ(sa.spectral_nonconverged, sb.spectral_nonconverged);
  EXPECT_EQ(sa.fallback_kl_cuts, sb.fallback_kl_cuts);
  EXPECT_EQ(sa.fallback_all_remote, sb.fallback_all_remote);
}

TEST(PipelineOffloader, WorksWithThreadPool) {
  parallel::ThreadPool pool(3);
  MecSystem system{default_params(), {netgen_user(30)}};
  PipelineOptions serial_opts = options_for(CutBackend::kSpectral);
  PipelineOptions pool_opts = serial_opts;
  pool_opts.pool = &pool;
  const OffloadingScheme serial =
      PipelineOffloader(serial_opts).solve(system);
  const OffloadingScheme parallel_s =
      PipelineOffloader(pool_opts).solve(system);
  // Same partition decision regardless of execution engine.
  EXPECT_EQ(serial.placement, parallel_s.placement);

  // A single user with several sub-graphs: the pool fans out over the
  // sub-graphs (compression and cut) instead of over users.
  graph::NetgenParams p;
  p.nodes = 240;
  p.edges = 960;
  p.components = 6;
  p.seed = 31;
  UserApp user;
  user.graph = graph::netgen_style(p);
  const MecSystem split{default_params(), {user}};
  const PipelineOptions opts = options_for(CutBackend::kSpectral);
  expect_pooled_matches_serial(split, opts);

  // Forced non-convergence: an unreachable tolerance stalls every
  // eigensolve, and KL recuts each sub-graph (at least four of them,
  // so the pool has sub-graphs to fan out over).
  PipelineOptions stalled = opts;
  stalled.spectral.fiedler.backend = spectral::EigenBackend::kShiftedPower;
  stalled.spectral.fiedler.tolerance = 0.0;
  stalled.spectral.fiedler.max_iterations = 50;
  expect_pooled_matches_serial(split, stalled);
  PipelineOffloader stalled_probe(stalled);
  (void)stalled_probe.solve(split);
  EXPECT_GE(stalled_probe.last_stats().fallback_kl_cuts, 4u);
}

TEST(PipelineOffloader, ParallelSolveMatchesSerialOnDistinctUsers) {
  // Seeded multi-user workload with all-distinct graphs, including a
  // user whose every function is pinned (no parts at all): the pooled
  // per-user fan-out must reproduce the serial scheme and objective
  // bit for bit.
  std::vector<UserApp> users;
  for (std::uint64_t s = 40; s < 46; ++s) users.push_back(netgen_user(s, 80));
  UserApp pinned_user = netgen_user(46, 40);
  pinned_user.unoffloadable.assign(pinned_user.graph.num_nodes(), true);
  users.push_back(pinned_user);
  const MecSystem system{default_params(), std::move(users)};

  PipelineOptions serial_opts = options_for(CutBackend::kSpectral);
  PipelineOffloader serial_solver(serial_opts);
  const OffloadingScheme serial = serial_solver.solve(system);

  parallel::ThreadPool pool(4);
  PipelineOptions pool_opts = serial_opts;
  pool_opts.pool = &pool;
  PipelineOffloader pool_solver(pool_opts);
  const OffloadingScheme pooled = pool_solver.solve(system);

  EXPECT_TRUE(serial == pooled);
  EXPECT_EQ(serial_solver.last_stats().final_objective,
            pool_solver.last_stats().final_objective);
  EXPECT_EQ(serial_solver.last_stats().num_parts,
            pool_solver.last_stats().num_parts);
  // The all-pinned user contributes no parts but stays valid/local.
  const std::size_t last = system.num_users() - 1;
  for (const Placement p : pooled.placement[last])
    EXPECT_EQ(p, Placement::kLocal);
}

TEST(PipelineOffloader, ParallelSolveMatchesSerialWithUserPeriod) {
  const std::vector<UserApp> protos{netgen_user(50, 60), netgen_user(51, 60),
                                    netgen_user(52, 60)};
  const MecSystem system =
      make_uniform_system(default_params(), protos, 12);

  PipelineOptions serial_opts = options_for(CutBackend::kSpectral);
  serial_opts.identical_user_period = protos.size();
  PipelineOffloader serial_solver(serial_opts);
  const OffloadingScheme serial = serial_solver.solve(system);

  parallel::ThreadPool pool(3);
  PipelineOptions pool_opts = serial_opts;
  pool_opts.pool = &pool;
  PipelineOffloader pool_solver(pool_opts);
  const OffloadingScheme pooled = pool_solver.solve(system);

  EXPECT_TRUE(serial == pooled);
  EXPECT_EQ(serial_solver.last_stats().final_objective,
            pool_solver.last_stats().final_objective);
}

TEST(PipelineOffloader, ReplicatedUsersAccountCompressionStats) {
  // Regression: replicated users used to copy their prototype's parts
  // without its compression counters, so aggregate stats reflected only
  // the prototypes. The deduplicated solve must report the same totals
  // as solving every user from scratch.
  const std::vector<UserApp> protos{netgen_user(60, 60), netgen_user(61, 60)};
  const MecSystem system = make_uniform_system(default_params(), protos, 6);

  PipelineOffloader naive(options_for(CutBackend::kSpectral));
  (void)naive.solve(system);
  const lpa::CompressionStats& full = naive.last_stats().compression;

  PipelineOptions dedup_opts = options_for(CutBackend::kSpectral);
  dedup_opts.identical_user_period = protos.size();
  PipelineOffloader dedup(dedup_opts);
  (void)dedup.solve(system);
  const lpa::CompressionStats& scaled = dedup.last_stats().compression;

  EXPECT_EQ(scaled.original_nodes, full.original_nodes);
  EXPECT_EQ(scaled.original_edges, full.original_edges);
  EXPECT_EQ(scaled.compressed_nodes, full.compressed_nodes);
  EXPECT_EQ(scaled.compressed_edges, full.compressed_edges);
  EXPECT_DOUBLE_EQ(scaled.absorbed_edge_weight, full.absorbed_edge_weight);
  // 6 users over 2 prototypes: totals are 3× one round of prototypes.
  EXPECT_EQ(scaled.original_nodes % 3, 0u);
}

TEST(PipelineOffloader, StageTimingsArePopulated) {
  MecSystem system{default_params(), {netgen_user(70), netgen_user(71)}};
  PipelineOffloader offloader(options_for(CutBackend::kSpectral));
  (void)offloader.solve(system);
  const PipelineOffloader::SolveStats& stats = offloader.last_stats();
  EXPECT_GT(stats.total_seconds, 0.0);
  EXPECT_GT(stats.compress_seconds, 0.0);
  EXPECT_GT(stats.cut_seconds, 0.0);
  EXPECT_GE(stats.greedy_seconds, 0.0);
  EXPECT_LE(stats.greedy_seconds, stats.total_seconds);
}

TEST(PipelineOffloader, EmptySystem) {
  MecSystem system{default_params(), {}};
  PipelineOffloader offloader(options_for(CutBackend::kSpectral));
  const OffloadingScheme scheme = offloader.solve(system);
  EXPECT_TRUE(scheme.placement.empty());
}

TEST(ReferenceOffloaders, RandomRespectsPinnedAndProbability) {
  UserApp app;
  app.graph = graph::complete_graph(50);
  app.unoffloadable.assign(50, false);
  app.unoffloadable[0] = true;
  MecSystem system{default_params(), {app}};
  RandomOffloader all_in(1.0);
  const OffloadingScheme scheme = all_in.solve(system);
  EXPECT_EQ(scheme.placement[0][0], Placement::kLocal);
  EXPECT_EQ(scheme.remote_count(0), 49u);

  RandomOffloader none(0.0);
  EXPECT_EQ(none.solve(system).remote_count(0), 0u);
}

TEST(ReferenceOffloaders, Names) {
  EXPECT_EQ(AllLocalOffloader{}.name(), "all_local");
  EXPECT_EQ(AllRemoteOffloader{}.name(), "all_remote");
  EXPECT_EQ(RandomOffloader{}.name(), "random");
}

}  // namespace
}  // namespace mecoff::mec
