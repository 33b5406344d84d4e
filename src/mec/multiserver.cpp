#include "mec/multiserver.hpp"

#include <algorithm>
#include <numeric>

#include "common/contracts.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"

namespace mecoff::mec {

namespace {

/// SystemParams for one server group: device fields from the system,
/// server/link fields from the spec, the link optionally derated by the
/// failover layer's health factor.
SystemParams group_params(const MultiServerSystem& system,
                          std::size_t server,
                          const ServerHealth* health = nullptr) {
  SystemParams p = system.device;
  const ServerSpec& spec = system.servers[server];
  p.server_capacity = spec.capacity;
  p.bandwidth = spec.bandwidth;
  p.transmit_power = spec.transmit_power;
  if (health != nullptr) p.bandwidth *= health->bandwidth_factor;
  return p;
}

/// The single-server subsystem of all users attached to `server`.
/// `active` (when given) excludes disconnected users.
MecSystem subsystem_for(const MultiServerSystem& system,
                        const std::vector<std::size_t>& server_of_user,
                        std::size_t server,
                        std::vector<std::size_t>& member_users,
                        const ServerHealth* health = nullptr,
                        const std::vector<bool>* active = nullptr) {
  MecSystem sub;
  sub.params = group_params(system, server, health);
  member_users.clear();
  for (std::size_t u = 0; u < system.users.size(); ++u) {
    if (server_of_user[u] != server) continue;
    if (active != nullptr && !(*active)[u]) continue;
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
                       std::size_t server, OffloadingScheme& scheme,
                       const ServerHealth* health = nullptr,
                       const std::vector<bool>* active = nullptr) {
  std::vector<std::size_t> members;
  const MecSystem sub = subsystem_for(system, server_of_user, server,
                                      members, health, active);
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

// ---------------------------------------------------------------------------
// FailoverController

FailoverController::FailoverController(MultiServerSystem system,
                                       FailoverOptions options)
    : system_(std::move(system)), options_(std::move(options)) {
  MECOFF_EXPECTS(system_.valid());
  MECOFF_EXPECTS(options_.hysteresis_margin >= 0.0);
  health_.assign(system_.servers.size(), ServerHealth{});
  active_.assign(system_.users.size(), true);
  current_ = MultiServerOffloader(options_.base).solve(system_);
  group_cost_.resize(system_.servers.size());
  for (std::size_t s = 0; s < system_.servers.size(); ++s)
    group_cost_[s] = eval_group(s, current_.scheme);
  refresh_totals();
}

std::size_t FailoverController::alive_servers() const {
  std::size_t count = 0;
  for (const ServerHealth& h : health_)
    if (h.alive) ++count;
  return count;
}

std::size_t FailoverController::active_users() const {
  std::size_t count = 0;
  for (const bool a : active_)
    if (a) ++count;
  return count;
}

bool FailoverController::user_active(std::size_t user) const {
  MECOFF_EXPECTS(user < active_.size());
  return active_[user];
}

double FailoverController::objective() const {
  double total = 0.0;
  for (const SystemCost& cost : group_cost_) total += cost.objective();
  return total;
}

std::vector<double> FailoverController::attached_weight() const {
  std::vector<double> load(system_.servers.size(), 0.0);
  for (std::size_t u = 0; u < system_.users.size(); ++u)
    if (active_[u])
      load[current_.server_of_user[u]] +=
          system_.users[u].graph.total_node_weight();
  return load;
}

std::size_t FailoverController::attach_target(
    double weight, const std::vector<double>& load) const {
  std::size_t best = SIZE_MAX;
  double best_ratio = std::numeric_limits<double>::infinity();
  for (std::size_t s = 0; s < system_.servers.size(); ++s) {
    if (!health_[s].alive) continue;
    const double ratio = (load[s] + weight) / system_.servers[s].capacity;
    if (ratio < best_ratio) {
      best_ratio = ratio;
      best = s;
    }
  }
  MECOFF_ENSURES(best != SIZE_MAX);  // caller checked a survivor exists
  return best;
}

SystemCost FailoverController::eval_group(
    std::size_t server, const OffloadingScheme& scheme) const {
  std::vector<std::size_t> members;
  const MecSystem sub = subsystem_for(system_, current_.server_of_user,
                                      server, members, &health_[server],
                                      &active_);
  if (sub.users.empty()) return SystemCost{};
  OffloadingScheme group_scheme;
  for (const std::size_t u : members)
    group_scheme.placement.push_back(scheme.placement[u]);
  return evaluate(sub, group_scheme);
}

SystemCost FailoverController::resolve_group(std::size_t server,
                                             OffloadingScheme& scheme) const {
  MECOFF_TRACE_SPAN_ARG("mec.failover.resolve_group", server);
  MECOFF_COUNTER_ADD("mec.failover.group_resolves", 1);
  // Tag the next flight-recorder record: this solve happened because the
  // failover layer had to re-place a group, not on the steady-state path.
  obs::FlightRecorder::global().note_failover_event();
  return solve_group(system_, options_.base, current_.server_of_user, server,
                     scheme, &health_[server], &active_);
}

void FailoverController::refresh_totals() {
  current_.total_energy = 0.0;
  current_.total_time = 0.0;
  for (const SystemCost& cost : group_cost_) {
    current_.total_energy += cost.total_energy;
    current_.total_time += cost.total_time;
  }
  current_.server_load.assign(system_.servers.size(), 0.0);
  for (std::size_t u = 0; u < system_.users.size(); ++u) {
    if (!active_[u]) continue;
    const UserApp& user = system_.users[u];
    for (graph::NodeId v = 0; v < user.graph.num_nodes(); ++v)
      if (current_.scheme.placement[u][v] == Placement::kRemote)
        current_.server_load[current_.server_of_user[u]] +=
            user.graph.node_weight(v);
  }
}

void FailoverController::enter_all_local() {
  MECOFF_COUNTER_ADD("mec.failover.all_local_entered", 1);
  obs::FlightRecorder::global().note_failover_event();
  all_local_ = true;
  for (std::size_t u = 0; u < system_.users.size(); ++u)
    current_.scheme.placement[u].assign(
        system_.users[u].graph.num_nodes(), Placement::kLocal);
  // All-local cost has no server/link term, so the nominal (dead)
  // specs still parameterize a valid evaluation.
  for (std::size_t s = 0; s < system_.servers.size(); ++s)
    group_cost_[s] = eval_group(s, current_.scheme);
  refresh_totals();
}

Result<FailoverStep> FailoverController::on_server_failed(
    std::size_t server) {
  if (server >= system_.servers.size())
    return Error("no such server " + std::to_string(server));
  if (!health_[server].alive)
    return Error("server " + std::to_string(server) + " is already down");

  MECOFF_TRACE_SPAN_ARG("mec.failover.server_failed", server);
  MECOFF_COUNTER_ADD("mec.failover.server_crashes", 1);
  FailoverStep step;
  step.objective_before = objective();
  health_[server].alive = false;
  health_[server].bandwidth_factor = 1.0;

  if (all_local_) {  // already degraded; nothing left to move
    step.all_local_fallback = true;
    step.objective_after = step.objective_before;
    return step;
  }

  // Orphans re-attach heaviest-first (deterministic id tie-break), the
  // same capacity-weighted rule as the initial assignment.
  std::vector<std::size_t> orphans;
  for (std::size_t u = 0; u < system_.users.size(); ++u)
    if (active_[u] && current_.server_of_user[u] == server)
      orphans.push_back(u);

  if (alive_servers() == 0) {
    enter_all_local();
    return Error("server " + std::to_string(server) +
                 " failed with no survivors; degraded to all-local");
  }

  std::sort(orphans.begin(), orphans.end(),
            [&](std::size_t a, std::size_t b) {
              const double wa = system_.users[a].graph.total_node_weight();
              const double wb = system_.users[b].graph.total_node_weight();
              return wa != wb ? wa > wb : a < b;
            });
  std::vector<double> load = attached_weight();
  load[server] = 0.0;
  std::vector<bool> touched(system_.servers.size(), false);
  for (const std::size_t u : orphans) {
    const double w = system_.users[u].graph.total_node_weight();
    const std::size_t target = attach_target(w, load);
    current_.server_of_user[u] = target;
    load[target] += w;
    touched[target] = true;
    step.moved_users.push_back(u);
  }

  // Re-solve every receiving group; the dead group costs nothing.
  group_cost_[server] = SystemCost{};
  for (std::size_t s = 0; s < system_.servers.size(); ++s) {
    if (!touched[s]) continue;
    group_cost_[s] = resolve_group(s, current_.scheme);
    step.resolved_groups.push_back(s);
  }
  refresh_totals();
  step.objective_after = objective();
  return step;
}

Result<FailoverStep> FailoverController::on_server_recovered(
    std::size_t server) {
  if (server >= system_.servers.size())
    return Error("no such server " + std::to_string(server));
  if (health_[server].alive)
    return Error("server " + std::to_string(server) + " is already up");

  MECOFF_TRACE_SPAN_ARG("mec.failover.server_recovered", server);
  MECOFF_COUNTER_ADD("mec.failover.server_recoveries", 1);
  FailoverStep step;
  step.objective_before = objective();
  health_[server] = ServerHealth{};  // alive, fresh link

  if (all_local_) {
    // Leaving the fallback always re-places: all-local was forced, not
    // chosen, so hysteresis does not apply.
    all_local_ = false;
    std::vector<double> load(system_.servers.size(), 0.0);
    std::vector<std::size_t> order;
    for (std::size_t u = 0; u < system_.users.size(); ++u)
      if (active_[u]) order.push_back(u);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                const double wa = system_.users[a].graph.total_node_weight();
                const double wb = system_.users[b].graph.total_node_weight();
                return wa != wb ? wa > wb : a < b;
              });
    for (const std::size_t u : order) {
      const double w = system_.users[u].graph.total_node_weight();
      const std::size_t target = attach_target(w, load);
      if (current_.server_of_user[u] != target) step.moved_users.push_back(u);
      current_.server_of_user[u] = target;
      load[target] += w;
    }
    for (std::size_t s = 0; s < system_.servers.size(); ++s) {
      if (!health_[s].alive) continue;
      group_cost_[s] = resolve_group(s, current_.scheme);
      step.resolved_groups.push_back(s);
    }
    refresh_totals();
    step.objective_after = objective();
    return step;
  }

  // Propose a fresh capacity-weighted attachment over the enlarged
  // server set; adopt only past the hysteresis margin so a flapping
  // server cannot thrash placements.
  std::vector<std::size_t> trial_attach = current_.server_of_user;
  std::vector<double> load(system_.servers.size(), 0.0);
  std::vector<std::size_t> order;
  for (std::size_t u = 0; u < system_.users.size(); ++u)
    if (active_[u]) order.push_back(u);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) {
              const double wa = system_.users[a].graph.total_node_weight();
              const double wb = system_.users[b].graph.total_node_weight();
              return wa != wb ? wa > wb : a < b;
            });
  std::vector<bool> touched(system_.servers.size(), false);
  bool any_move = false;
  for (const std::size_t u : order) {
    const double w = system_.users[u].graph.total_node_weight();
    const std::size_t target = attach_target(w, load);
    if (target != trial_attach[u]) {
      touched[target] = true;
      touched[trial_attach[u]] = true;
      any_move = true;
    }
    trial_attach[u] = target;
    load[target] += w;
  }
  if (!any_move) {
    step.objective_after = step.objective_before;
    return step;
  }

  std::vector<std::size_t> saved_attach = current_.server_of_user;
  current_.server_of_user = trial_attach;
  OffloadingScheme trial_scheme = current_.scheme;
  std::vector<SystemCost> trial_cost = group_cost_;
  double trial_total = 0.0;
  for (std::size_t s = 0; s < system_.servers.size(); ++s) {
    if (touched[s] && health_[s].alive)
      trial_cost[s] = solve_group(system_, options_.base, trial_attach, s,
                                  trial_scheme, &health_[s], &active_);
    trial_total += trial_cost[s].objective();
  }
  const double before = step.objective_before;
  if (before - trial_total > options_.hysteresis_margin * before) {
    for (std::size_t u = 0; u < system_.users.size(); ++u)
      if (active_[u] && saved_attach[u] != trial_attach[u])
        step.moved_users.push_back(u);
    for (std::size_t s = 0; s < system_.servers.size(); ++s)
      if (touched[s] && health_[s].alive) step.resolved_groups.push_back(s);
    current_.scheme = std::move(trial_scheme);
    group_cost_ = std::move(trial_cost);
    refresh_totals();
    step.objective_after = objective();
  } else {
    current_.server_of_user = std::move(saved_attach);
    step.adopted = false;
    step.objective_after = step.objective_before;
    ++suppressed_;
  }
  return step;
}

Result<FailoverStep> FailoverController::set_link_factor(std::size_t server,
                                                         double factor) {
  if (server >= system_.servers.size())
    return Error("no such server " + std::to_string(server));
  if (!health_[server].alive)
    return Error("server " + std::to_string(server) +
                 " is down; no link to change");

  FailoverStep step;
  step.objective_before = objective();
  health_[server].bandwidth_factor = factor;
  if (all_local_) {  // no remote traffic to re-price
    step.objective_after = step.objective_before;
    return step;
  }

  // Costs shift with the link even if nobody moves: re-price the kept
  // placements, then adopt a re-solve only past the hysteresis margin.
  const SystemCost kept = eval_group(server, current_.scheme);
  OffloadingScheme trial_scheme = current_.scheme;
  const SystemCost resolved = resolve_group(server, trial_scheme);
  if (kept.objective() - resolved.objective() >
      options_.hysteresis_margin * kept.objective()) {
    current_.scheme = std::move(trial_scheme);
    group_cost_[server] = resolved;
    step.resolved_groups.push_back(server);
  } else {
    group_cost_[server] = kept;
    step.adopted = false;
    ++suppressed_;
  }
  refresh_totals();
  step.objective_after = objective();
  return step;
}

Result<FailoverStep> FailoverController::on_link_degraded(
    std::size_t server, double severity) {
  if (!(severity > 0.0 && severity < 1.0))
    return Error("link severity must be in (0, 1)");
  return set_link_factor(server, severity);
}

Result<FailoverStep> FailoverController::on_link_restored(
    std::size_t server) {
  return set_link_factor(server, 1.0);
}

Result<FailoverStep> FailoverController::on_user_disconnected(
    std::size_t user) {
  if (user >= system_.users.size())
    return Error("no such user " + std::to_string(user));
  if (!active_[user])
    return Error("user " + std::to_string(user) + " already disconnected");

  FailoverStep step;
  step.objective_before = objective();
  active_[user] = false;
  current_.scheme.placement[user].assign(
      system_.users[user].graph.num_nodes(), Placement::kLocal);
  const std::size_t home = current_.server_of_user[user];
  if (all_local_ || !health_[home].alive) {
    step.all_local_fallback = all_local_;
    for (std::size_t s = 0; s < system_.servers.size(); ++s)
      group_cost_[s] = eval_group(s, current_.scheme);
    refresh_totals();
    step.objective_after = objective();
    return step;
  }

  // Load left the group; keep the old placements unless a re-solve
  // strictly improves on them (no hysteresis: departures cannot flap).
  const SystemCost kept = eval_group(home, current_.scheme);
  OffloadingScheme trial_scheme = current_.scheme;
  const SystemCost resolved = resolve_group(home, trial_scheme);
  if (resolved.objective() < kept.objective()) {
    current_.scheme = std::move(trial_scheme);
    group_cost_[home] = resolved;
    step.resolved_groups.push_back(home);
  } else {
    group_cost_[home] = kept;
  }
  refresh_totals();
  step.objective_after = objective();
  return step;
}

SystemCost evaluate_server_group(const MultiServerSystem& system,
                                 const MultiServerResult& result,
                                 std::size_t server) {
  MECOFF_EXPECTS(server < system.servers.size());
  std::vector<std::size_t> members;
  MecSystem sub =
      subsystem_for(system, result.server_of_user, server, members);
  OffloadingScheme scheme;
  for (const std::size_t u : members)
    scheme.placement.push_back(result.scheme.placement[u]);
  if (sub.users.empty()) return SystemCost{};
  return evaluate(sub, scheme);
}

}  // namespace mecoff::mec
