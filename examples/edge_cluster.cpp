// Edge-cluster scenario: a city block served by several heterogeneous
// edge boxes (one big well-connected box, two small ones), beyond the
// paper's single-server model.
//
// Demonstrates: the multi-server offloader (capacity-weighted user
// attachment + per-server pipeline + rebalancing).
//
// Run:  ./edge_cluster [users=<n>]
#include <cstdio>

#include "appmodel/synthetic_apps.hpp"
#include "common/config.hpp"
#include "mec/multiserver.hpp"

int main(int argc, char** argv) {
  using namespace mecoff;

  const Config cfg = Config::from_args(argc, argv);
  const std::size_t users =
      static_cast<std::size_t>(cfg.get_int("users", 24));

  // Application mix from the appmodel library.
  std::vector<mec::UserApp> user_apps;
  for (std::size_t i = 0; i < users; ++i) {
    const appmodel::Application app =
        i % 3 == 0   ? appmodel::make_face_recognition_app()
        : i % 3 == 1 ? appmodel::make_ar_game_app()
                     : appmodel::make_video_analytics_app();
    mec::UserApp user;
    user.graph = app.to_graph();
    user.unoffloadable = app.unoffloadable_mask();
    user.components = app.component_ids();
    user_apps.push_back(std::move(user));
  }

  mec::MultiServerSystem system;
  system.device.mobile_power = 1.0;
  system.device.mobile_capacity = 4.0;
  system.device.contention_factor = 0.5;
  // One beefy box with a fat pipe, two small boxes on slower links.
  system.servers = {mec::ServerSpec{400.0, 40.0, 8.0},
                    mec::ServerSpec{120.0, 15.0, 8.0},
                    mec::ServerSpec{120.0, 15.0, 8.0}};
  system.users = user_apps;

  mec::MultiServerOptions options;
  options.pipeline.propagation.coupling_threshold = 50.0;
  options.rebalance_rounds = 3;
  mec::MultiServerOffloader offloader(options);
  const mec::MultiServerResult result = offloader.solve(system);

  std::printf("%zu users over %zu edge servers\n", users,
              system.servers.size());
  std::printf("objective E+T = %.2f (E = %.2f, T = %.2f), rebalance "
              "moves: %zu\n\n",
              result.objective(), result.total_energy, result.total_time,
              result.rebalance_moves);

  std::printf("%-8s | %-10s | %-12s | %s\n", "server", "capacity",
              "users", "remote load");
  for (std::size_t s = 0; s < system.servers.size(); ++s) {
    std::size_t count = 0;
    for (const std::size_t home : result.server_of_user)
      if (home == s) ++count;
    std::printf("S%-7zu | %-10.0f | %-12zu | %.0f\n", s,
                system.servers[s].capacity, count, result.server_load[s]);
  }
  return 0;
}
