// Extended property suites over a seed grid: the Jacobi oracle against
// Lanczos, the batch executor's bill against the analytic model, and
// the multi-server composition.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "linalg/laplacian.hpp"
#include "mec/costs.hpp"
#include "mec/multiserver.hpp"
#include "sim/executor.hpp"
#include "spectral/fiedler.hpp"
#include "testlib/linalg_oracles.hpp"
#include "testlib/mec_oracles.hpp"
#include "testlib/test_apps.hpp"

namespace mecoff {
namespace {

class SeedProperty : public ::testing::TestWithParam<std::uint64_t> {};

graph::WeightedGraph seeded_graph(std::uint64_t seed, std::size_t nodes) {
  graph::NetgenParams p;
  p.nodes = nodes;
  p.edges = nodes * 4;
  p.components = 1;
  p.seed = seed;
  return graph::netgen_style(p);
}

TEST_P(SeedProperty, JacobiAndLanczosAgreeOnFiedlerValue) {
  const graph::WeightedGraph g = seeded_graph(GetParam(), 40);
  const linalg::JacobiResult full =
      linalg::jacobi_eigen(linalg::dense_laplacian(g));
  ASSERT_TRUE(full.converged);
  const spectral::FiedlerResult fiedler = spectral::fiedler_pair(g);
  ASSERT_TRUE(fiedler.converged);
  EXPECT_NEAR(fiedler.value, full.values[1],
              1e-5 * (1.0 + full.values[1]));
}

TEST_P(SeedProperty, JacobiSpectrumBoundsHold) {
  const graph::WeightedGraph g = seeded_graph(GetParam(), 30);
  const linalg::SparseMatrix lap = linalg::laplacian(g);
  const linalg::JacobiResult full =
      linalg::jacobi_eigen(linalg::dense_laplacian(g));
  ASSERT_TRUE(full.converged);
  // PSD: all eigenvalues >= 0 (up to roundoff); max bounded by
  // Gershgorin.
  EXPECT_GE(full.values.front(), -1e-8);
  EXPECT_LE(full.values.back(), lap.gershgorin_bound() + 1e-8);
}

TEST_P(SeedProperty, BatchExecutorBillsTheAnalyticEnergy) {
  // Energies are load-independent: whatever the server queue does, the
  // simulator must bill every user's local and transmit energy exactly
  // as evaluate() does, for any scheme that respects the pins.
  mec::MecSystem system;
  for (std::uint64_t i = 0; i < 3; ++i) {
    const appmodel::Application app =
        appmodel::make_random_app(40, 0.15, GetParam() * 3 + i);
    mec::UserApp user;
    user.graph = app.to_graph();
    user.unoffloadable = app.unoffloadable_mask();
    system.users.push_back(std::move(user));
  }

  Rng rng(GetParam() ^ 0xba7c);
  mec::OffloadingScheme scheme = mec::OffloadingScheme::all_local(system);
  for (std::size_t u = 0; u < system.users.size(); ++u)
    for (std::size_t v = 0; v < system.users[u].graph.num_nodes(); ++v)
      if (!system.users[u].unoffloadable[v] && rng.bernoulli(0.5))
        scheme.placement[u][v] = mec::Placement::kRemote;
  ASSERT_TRUE(scheme.valid_for(system));

  const mec::SystemCost analytic = mec::evaluate(system, scheme);
  const sim::SimReport batch = sim::simulate_scheme(system, scheme);
  const auto near = [](double got, double want) {
    return std::abs(got - want) <= 1e-9 * std::abs(want);
  };
  EXPECT_TRUE(near(batch.total_energy, analytic.total_energy))
      << batch.total_energy << " vs " << analytic.total_energy;
  ASSERT_EQ(batch.users.size(), analytic.users.size());
  for (std::size_t u = 0; u < batch.users.size(); ++u) {
    EXPECT_TRUE(near(batch.users[u].local_energy,
                     analytic.users[u].local_energy))
        << "user " << u;
    EXPECT_TRUE(near(batch.users[u].transmit_energy,
                     analytic.users[u].transmit_energy))
        << "user " << u;
  }
}

TEST_P(SeedProperty, MultiServerTotalsMatchGroupOracles) {
  mec::MultiServerSystem system;
  system.device.mobile_power = 1.0;
  system.device.mobile_capacity = 5.0;
  system.servers = {mec::ServerSpec{200.0, 20.0, 8.0},
                    mec::ServerSpec{350.0, 15.0, 10.0},
                    mec::ServerSpec{150.0, 30.0, 6.0}};
  for (std::size_t i = 0; i < 7; ++i) {
    mec::UserApp user;
    user.graph = seeded_graph(GetParam() * 13 + i, 50);
    system.users.push_back(std::move(user));
  }
  const mec::MultiServerResult result =
      mec::MultiServerOffloader{}.solve(system);
  double energy = 0.0;
  double time = 0.0;
  for (std::size_t s = 0; s < system.servers.size(); ++s) {
    const mec::SystemCost cost =
        mec::evaluate_server_group(system, result, s);
    energy += cost.total_energy;
    time += cost.total_time;
  }
  EXPECT_NEAR(result.total_energy, energy, 1e-6 * (1.0 + energy));
  EXPECT_NEAR(result.total_time, time, 1e-6 * (1.0 + time));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedProperty,
                         ::testing::Values(401u, 402u, 403u, 404u, 405u));

}  // namespace
}  // namespace mecoff
