#include "testlib/mec_oracles.hpp"

#include "common/contracts.hpp"
#include "common/rng.hpp"

namespace mecoff::mec {

RandomOffloader::RandomOffloader(double remote_probability,
                                 std::uint64_t seed)
    : remote_probability_(remote_probability), seed_(seed) {
  MECOFF_EXPECTS(remote_probability >= 0.0 && remote_probability <= 1.0);
}

OffloadingScheme RandomOffloader::solve(const MecSystem& system) {
  Rng rng(seed_);
  OffloadingScheme scheme = OffloadingScheme::all_local(system);
  for (std::size_t u = 0; u < system.num_users(); ++u) {
    const UserApp& user = system.users[u];
    for (graph::NodeId v = 0; v < user.graph.num_nodes(); ++v) {
      const bool pinned =
          !user.unoffloadable.empty() && user.unoffloadable[v];
      if (!pinned && rng.bernoulli(remote_probability_))
        scheme.placement[u][v] = Placement::kRemote;
    }
  }
  return scheme;
}

SystemCost evaluate_server_group(const MultiServerSystem& system,
                                 const MultiServerResult& result,
                                 std::size_t server) {
  MECOFF_EXPECTS(server < system.servers.size());
  const ServerSpec& spec = system.servers[server];
  MecSystem sub;
  sub.params = system.device;
  sub.params.server_capacity = spec.capacity;
  sub.params.bandwidth = spec.bandwidth;
  sub.params.transmit_power = spec.transmit_power;
  OffloadingScheme scheme;
  for (std::size_t u = 0; u < system.users.size(); ++u) {
    if (result.server_of_user[u] != server) continue;
    sub.users.push_back(system.users[u]);
    scheme.placement.push_back(result.scheme.placement[u]);
  }
  if (sub.users.empty()) return SystemCost{};
  return evaluate(sub, scheme);
}

}  // namespace mecoff::mec
