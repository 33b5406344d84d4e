#include "testlib/test_apps.hpp"

#include <algorithm>
#include <string>

#include "common/contracts.hpp"
#include "common/rng.hpp"

namespace mecoff::appmodel {

namespace {

/// Shorthand builder: declare a function and return its index.
std::size_t fn(Application& app, const std::string& name, double compute,
               const std::string& component, bool pinned = false) {
  FunctionInfo info;
  info.name = name;
  info.computation = compute;
  info.component = component;
  info.unoffloadable = pinned;
  return app.add_function(std::move(info));
}

/// `prefix` followed by the decimal `index`, e.g. "f12".
std::string indexed_name(char prefix, std::size_t index) {
  std::string name(1, prefix);
  name += std::to_string(index);
  return name;
}

}  // namespace

Application make_slam_navigation_app() {
  Application app("slam_navigation");

  // Sensors and control — pinned, high-rate.
  const auto camera = fn(app, "camera_frames", 8, "sensors", true);
  const auto imu = fn(app, "imu_stream", 4, "sensors", true);
  const auto control = fn(app, "motion_control", 12, "sensors", true);

  // Tracking — latency-critical, heavy per-frame data from camera.
  const auto track_feat = fn(app, "track_features", 95, "tracking");
  const auto pose = fn(app, "pose_estimate", 85, "tracking");

  // Mapping — offloadable bulk.
  const auto local_map = fn(app, "local_mapping", 240, "mapping");
  const auto loop_close = fn(app, "loop_closure", 310, "mapping");
  const auto global_ba = fn(app, "global_bundle_adjust", 420, "mapping");
  const auto reloc = fn(app, "relocalization", 180, "mapping");

  app.add_exchange(camera, track_feat, 64);  // raw frames
  app.add_exchange(imu, pose, 8);
  app.add_exchange(track_feat, pose, 40);
  app.add_exchange(pose, control, 3);
  app.add_exchange(pose, local_map, 12);     // keyframes only
  app.add_exchange(local_map, loop_close, 70);
  app.add_exchange(loop_close, global_ba, 88);
  app.add_exchange(global_ba, local_map, 25);
  app.add_exchange(reloc, pose, 6);
  app.add_exchange(local_map, reloc, 30);
  return app;
}

Application make_random_app(std::size_t functions,
                            double unoffloadable_fraction,
                            std::uint64_t seed) {
  MECOFF_EXPECTS(functions >= 2);
  MECOFF_EXPECTS(unoffloadable_fraction >= 0.0 &&
                 unoffloadable_fraction < 1.0);
  Rng rng(seed);
  Application app("random_app");

  const std::size_t num_components = std::max<std::size_t>(
      1, functions / 24);
  for (std::size_t i = 0; i < functions; ++i) {
    FunctionInfo info;
    info.name = indexed_name('f', i);
    info.computation = rng.uniform(1.0, 200.0);
    info.component = indexed_name('c', i % num_components);
    info.unoffloadable = rng.bernoulli(unoffloadable_fraction);
    app.add_function(std::move(info));
  }
  // Call-tree: each function i >= 1 exchanges data with a random earlier
  // one, preferring a same-component parent (heavy edge) over a random
  // cross link (light edge).
  for (std::size_t i = 1; i < functions; ++i) {
    std::size_t parent = rng.index(i);
    // Bias toward same-component parents: retry a few times.
    for (int tries = 0; tries < 4; ++tries) {
      if (app.function(parent).component == app.function(i).component) break;
      parent = rng.index(i);
    }
    const bool same =
        app.function(parent).component == app.function(i).component;
    app.add_exchange(parent, i, same ? rng.uniform(30.0, 120.0)
                                     : rng.uniform(1.0, 10.0));
  }
  for (std::size_t i = 0; i + 1 < functions; ++i) {
    if (rng.bernoulli(0.15)) {
      const std::size_t j = rng.index(functions);
      if (j != i) app.add_exchange(i, j, rng.uniform(1.0, 15.0));
    }
  }
  return app;
}

}  // namespace mecoff::appmodel
