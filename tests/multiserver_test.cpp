// Tests for the multi-server extension.
#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "graph/generators.hpp"
#include "mec/multiserver.hpp"
#include "testlib/mec_oracles.hpp"

namespace mecoff::mec {
namespace {

SystemParams device_params() {
  SystemParams p;
  p.mobile_power = 1.0;
  p.mobile_capacity = 5.0;
  p.contention_factor = 0.5;
  return p;
}

UserApp netgen_user(std::uint64_t seed, std::size_t nodes = 80) {
  graph::NetgenParams gp;
  gp.nodes = nodes;
  gp.edges = nodes * 4;
  gp.seed = seed;
  UserApp user;
  user.graph = graph::netgen_style(gp);
  user.unoffloadable.assign(nodes, false);
  for (std::size_t v = 0; v < nodes; v += 10) user.unoffloadable[v] = true;
  return user;
}

MultiServerSystem two_server_system(std::size_t users) {
  MultiServerSystem system;
  system.device = device_params();
  system.servers = {ServerSpec{300.0, 20.0, 8.0},
                    ServerSpec{300.0, 20.0, 8.0}};
  for (std::size_t i = 0; i < users; ++i)
    system.users.push_back(netgen_user(100 + i));
  return system;
}

TEST(MultiServer, Validation) {
  MultiServerSystem system = two_server_system(2);
  EXPECT_TRUE(system.valid());
  system.servers.clear();
  EXPECT_FALSE(system.valid());
  system = two_server_system(2);
  system.servers[0].bandwidth = 0.0;
  EXPECT_FALSE(system.valid());
}

TEST(MultiServer, EveryUserGetsAServerAndValidScheme) {
  const MultiServerSystem system = two_server_system(6);
  MultiServerOffloader offloader;
  const MultiServerResult result = offloader.solve(system);
  ASSERT_EQ(result.server_of_user.size(), 6u);
  for (const std::size_t s : result.server_of_user)
    EXPECT_LT(s, system.servers.size());
  ASSERT_EQ(result.scheme.placement.size(), 6u);
  for (std::size_t u = 0; u < 6; ++u) {
    ASSERT_EQ(result.scheme.placement[u].size(),
              system.users[u].graph.num_nodes());
    // Pinned functions stay local.
    for (std::size_t v = 0; v < system.users[u].graph.num_nodes(); ++v) {
      if (system.users[u].unoffloadable[v]) {
        EXPECT_EQ(result.scheme.placement[u][v], Placement::kLocal);
      }
    }
  }
}

TEST(MultiServer, InitialAssignmentBalancesLoad) {
  MultiServerSystem system = two_server_system(8);
  MultiServerOptions opts;
  opts.rebalance_rounds = 0;  // isolate the LPT assignment
  MultiServerOffloader offloader(opts);
  const MultiServerResult result = offloader.solve(system);
  std::size_t count[2] = {0, 0};
  for (const std::size_t s : result.server_of_user) ++count[s];
  // Equal-capacity servers with near-equal users: 4/4 or 5/3 at worst.
  EXPECT_GE(count[0], 3u);
  EXPECT_GE(count[1], 3u);
}

TEST(MultiServer, CapacityWeightedAssignment) {
  MultiServerSystem system = two_server_system(9);
  system.servers[0].capacity = 900.0;  // 3x the other box
  system.servers[1].capacity = 300.0;
  MultiServerOptions opts;
  opts.rebalance_rounds = 0;
  const MultiServerResult result = MultiServerOffloader(opts).solve(system);
  std::size_t count[2] = {0, 0};
  for (const std::size_t s : result.server_of_user) ++count[s];
  EXPECT_GT(count[0], count[1]);  // big box takes more users
}

TEST(MultiServer, ConsolidationWinsAtEqualTotalCapacity) {
  // The congestion model normalizes by capacity² (M/M/1-style economy
  // of scale): one big box serves the same population with less queueing
  // than two half-size boxes. The solver must realize that advantage.
  MultiServerSystem split = two_server_system(10);
  split.servers = {ServerSpec{200.0, 20.0, 8.0},
                   ServerSpec{200.0, 20.0, 8.0}};
  MultiServerSystem merged = split;
  merged.servers = {ServerSpec{400.0, 20.0, 8.0}};

  MultiServerOffloader offloader;
  const double two = offloader.solve(split).objective();
  const double one = offloader.solve(merged).objective();
  EXPECT_LE(one, two * 1.001);
}

TEST(MultiServer, ObjectiveMatchesGroupOracle) {
  const MultiServerSystem system = two_server_system(5);
  const MultiServerResult result = MultiServerOffloader{}.solve(system);
  double energy = 0.0;
  double time = 0.0;
  for (std::size_t s = 0; s < system.servers.size(); ++s) {
    const SystemCost cost = evaluate_server_group(system, result, s);
    energy += cost.total_energy;
    time += cost.total_time;
  }
  EXPECT_NEAR(result.total_energy, energy, 1e-6 * (1.0 + energy));
  EXPECT_NEAR(result.total_time, time, 1e-6 * (1.0 + time));
}

TEST(MultiServer, RebalancingNeverHurts) {
  MultiServerSystem system = two_server_system(7);
  system.servers[1].bandwidth = 5.0;  // second box has a poor link
  MultiServerOptions without;
  without.rebalance_rounds = 0;
  MultiServerOptions with;
  with.rebalance_rounds = 3;
  const double before = MultiServerOffloader(without).solve(system)
                            .objective();
  const MultiServerResult rebalanced =
      MultiServerOffloader(with).solve(system);
  EXPECT_LE(rebalanced.objective(), before + 1e-9);
}

TEST(MultiServer, ServerLoadAccountsRemoteWeight) {
  const MultiServerSystem system = two_server_system(4);
  const MultiServerResult result = MultiServerOffloader{}.solve(system);
  double total_remote = 0.0;
  for (std::size_t u = 0; u < system.users.size(); ++u)
    for (std::size_t v = 0; v < system.users[u].graph.num_nodes(); ++v)
      if (result.scheme.placement[u][v] == Placement::kRemote)
        total_remote += system.users[u].graph.node_weight(v);
  double load_sum = 0.0;
  for (const double l : result.server_load) load_sum += l;
  EXPECT_NEAR(load_sum, total_remote, 1e-9);
}

TEST(MultiServer, SingleServerDegeneratesToPipeline) {
  // With one server the extension must match the plain pipeline.
  MultiServerSystem system = two_server_system(3);
  system.servers = {ServerSpec{300.0, 20.0, 8.0}};
  const MultiServerResult multi = MultiServerOffloader{}.solve(system);

  MecSystem flat;
  flat.params = device_params();
  flat.params.server_capacity = 300.0;
  flat.params.bandwidth = 20.0;
  flat.params.transmit_power = 8.0;
  flat.users = system.users;
  PipelineOffloader pipeline;
  const OffloadingScheme scheme = pipeline.solve(flat);
  const SystemCost cost = evaluate(flat, scheme);
  EXPECT_NEAR(multi.objective(), cost.objective(),
              1e-6 * (1.0 + cost.objective()));
}

}  // namespace
}  // namespace mecoff::mec
