#include "mec/multiserver.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/contracts.hpp"

namespace mecoff::mec {

namespace {

/// SystemParams for one server group: device fields from the system,
/// server/link fields from the spec.
SystemParams group_params(const MultiServerSystem& system,
                          std::size_t server) {
  SystemParams p = system.device;
  const ServerSpec& spec = system.servers[server];
  p.server_capacity = spec.capacity;
  p.bandwidth = spec.bandwidth;
  p.transmit_power = spec.transmit_power;
  return p;
}

/// The single-server subsystem of all users attached to `server`.
MecSystem subsystem_for(const MultiServerSystem& system,
                        const std::vector<std::size_t>& server_of_user,
                        std::size_t server,
                        std::vector<std::size_t>& member_users) {
  MecSystem sub;
  sub.params = group_params(system, server);
  member_users.clear();
  for (std::size_t u = 0; u < system.users.size(); ++u) {
    if (server_of_user[u] != server) continue;
    member_users.push_back(u);
    sub.users.push_back(system.users[u]);
  }
  return sub;
}

/// Solve one group and scatter its placements into the global scheme.
/// Returns the group's cost.
SystemCost solve_group(const MultiServerSystem& system,
                       const MultiServerOptions& options,
                       const std::vector<std::size_t>& server_of_user,
                       std::size_t server, OffloadingScheme& scheme) {
  std::vector<std::size_t> members;
  const MecSystem sub =
      subsystem_for(system, server_of_user, server, members);
  if (sub.users.empty()) return SystemCost{};
  PipelineOffloader offloader(options.pipeline);
  const OffloadingScheme local_scheme = offloader.solve(sub);
  for (std::size_t i = 0; i < members.size(); ++i)
    scheme.placement[members[i]] = local_scheme.placement[i];
  return evaluate(sub, local_scheme);
}

}  // namespace

bool MultiServerSystem::valid() const {
  if (servers.empty()) return false;
  for (const ServerSpec& s : servers)
    if (s.capacity <= 0.0 || s.bandwidth <= 0.0 || s.transmit_power <= 0.0)
      return false;
  MecSystem probe;
  probe.params = device;
  probe.params.server_capacity = servers.front().capacity;
  probe.params.bandwidth = servers.front().bandwidth;
  probe.params.transmit_power = servers.front().transmit_power;
  probe.users = users;
  return probe.valid();
}

MultiServerOffloader::MultiServerOffloader(MultiServerOptions options)
    : options_(std::move(options)) {}

MultiServerResult MultiServerOffloader::solve(
    const MultiServerSystem& system) {
  MECOFF_EXPECTS(system.valid());
  const std::size_t num_servers = system.servers.size();
  const std::size_t num_users = system.users.size();

  MultiServerResult result;
  result.server_of_user.assign(num_users, 0);

  // Initial attachment: heaviest users first onto the server with the
  // lowest load-to-capacity ratio (classic LPT balancing, capacity
  // weighted).
  std::vector<std::size_t> order(num_users);
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> user_weight(num_users, 0.0);
  for (std::size_t u = 0; u < num_users; ++u)
    user_weight[u] = system.users[u].graph.total_node_weight();
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return user_weight[a] > user_weight[b];
  });
  std::vector<double> assigned(num_servers, 0.0);
  for (const std::size_t u : order) {
    std::size_t best = 0;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < num_servers; ++s) {
      const double ratio =
          (assigned[s] + user_weight[u]) / system.servers[s].capacity;
      if (ratio < best_ratio) {
        best_ratio = ratio;
        best = s;
      }
    }
    result.server_of_user[u] = best;
    assigned[best] += user_weight[u];
  }

  // Solve every group.
  result.scheme.placement.resize(num_users);
  std::vector<SystemCost> group_cost(num_servers);
  for (std::size_t s = 0; s < num_servers; ++s)
    group_cost[s] = solve_group(system, options_, result.server_of_user, s,
                                result.scheme);

  // Rebalance: try re-attaching each user to every other server; accept
  // the move if re-solving the two affected groups lowers the combined
  // objective. One accepted move per user per round.
  for (std::size_t round = 0; round < options_.rebalance_rounds; ++round) {
    bool any_move = false;
    for (std::size_t u = 0; u < num_users; ++u) {
      const std::size_t from = result.server_of_user[u];
      for (std::size_t to = 0; to < num_servers; ++to) {
        if (to == from) continue;
        const double before =
            group_cost[from].objective() + group_cost[to].objective();

        std::vector<std::size_t> trial = result.server_of_user;
        trial[u] = to;
        OffloadingScheme trial_scheme = result.scheme;
        const SystemCost cost_from =
            solve_group(system, options_, trial, from, trial_scheme);
        const SystemCost cost_to =
            solve_group(system, options_, trial, to, trial_scheme);
        if (cost_from.objective() + cost_to.objective() <
            before - 1e-9) {
          result.server_of_user = std::move(trial);
          result.scheme = std::move(trial_scheme);
          group_cost[from] = cost_from;
          group_cost[to] = cost_to;
          ++result.rebalance_moves;
          any_move = true;
          break;  // next user
        }
      }
    }
    if (!any_move) break;
  }

  // Totals and loads.
  result.server_load.assign(num_servers, 0.0);
  for (std::size_t s = 0; s < num_servers; ++s) {
    result.total_energy += group_cost[s].total_energy;
    result.total_time += group_cost[s].total_time;
  }
  for (std::size_t u = 0; u < num_users; ++u) {
    const UserApp& user = system.users[u];
    for (graph::NodeId v = 0; v < user.graph.num_nodes(); ++v)
      if (result.scheme.placement[u][v] == Placement::kRemote)
        result.server_load[result.server_of_user[u]] +=
            user.graph.node_weight(v);
  }
  return result;
}

}  // namespace mecoff::mec
