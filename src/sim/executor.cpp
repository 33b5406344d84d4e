#include "sim/executor.hpp"

#include <algorithm>
#include <memory>

#include "common/contracts.hpp"
#include "sim/resources.hpp"

namespace mecoff::sim {

SimReport simulate_scheme(const mec::MecSystem& system,
                          const mec::OffloadingScheme& scheme,
                          const SimOptions& options) {
  MECOFF_EXPECTS(system.valid());
  MECOFF_EXPECTS(scheme.valid_for(system));
  const mec::SystemParams& p = system.params;

  SimEngine engine;
  FifoResource server(engine, p.server_capacity);

  // Optional fading radios, one independent process per user.
  std::vector<std::unique_ptr<GilbertElliottLink>> links;
  if (options.channel.has_value()) {
    links.reserve(system.num_users());
    for (std::size_t u = 0; u < system.num_users(); ++u) {
      ChannelModel model = *options.channel;
      model.seed += u;
      links.push_back(std::make_unique<GilbertElliottLink>(engine, model));
    }
  }

  SimReport report;
  report.users.resize(system.num_users());

  for (std::size_t u = 0; u < system.num_users(); ++u) {
    const mec::UserApp& user = system.users[u];
    UserOutcome& outcome = report.users[u];

    double local_w = 0.0;
    double remote_w = 0.0;
    double cross_w = 0.0;
    for (graph::NodeId v = 0; v < user.graph.num_nodes(); ++v) {
      const double w = user.graph.node_weight(v);
      if (scheme.placement[u][v] == mec::Placement::kLocal)
        local_w += w;
      else
        remote_w += w;
    }
    for (const graph::Edge& e : user.graph.edges())
      if (scheme.placement[u][e.u] != scheme.placement[u][e.v])
        cross_w += e.weight;

    outcome.local_time = local_w / p.mobile_capacity;
    outcome.local_energy = outcome.local_time * p.mobile_power;
    outcome.upload_time = cross_w / p.bandwidth;
    outcome.transmit_energy = outcome.upload_time * p.transmit_power;

    // Local batch finishes at local_time (device is dedicated).
    outcome.completion = outcome.local_time;

    if (remote_w > 0.0) {
      const auto enqueue_remote = [&, u, remote_w] {
        server.submit(remote_w, [&, u](const JobStats& stats) {
          UserOutcome& oc = report.users[u];
          oc.server_wait = stats.wait();
          oc.server_time = stats.sojourn() - stats.wait();
          oc.completion = std::max(oc.completion, stats.completed);
        });
      };
      if (options.channel.has_value() && cross_w > 0.0) {
        // Fading radio: the upload's realized duration replaces the
        // constant-rate estimate, for time AND energy.
        links[u]->submit(cross_w,
                         [&, u, enqueue_remote](const JobStats& stats) {
                           UserOutcome& oc = report.users[u];
                           oc.upload_time = stats.completed - stats.started;
                           oc.transmit_energy =
                               oc.upload_time * p.transmit_power;
                           enqueue_remote();
                         });
      } else {
        // Constant-rate radio: upload finishes at cross/b.
        engine.schedule_at(outcome.upload_time, enqueue_remote);
      }
    }
  }

  engine.run();
  report.events = engine.events_executed();

  for (const UserOutcome& outcome : report.users) {
    report.makespan = std::max(report.makespan, outcome.completion);
    report.total_energy += outcome.local_energy + outcome.transmit_energy;
    report.total_time += outcome.local_time + outcome.upload_time +
                         outcome.server_wait + outcome.server_time;
  }
  return report;
}

}  // namespace mecoff::sim
