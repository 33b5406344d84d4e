// Application inputs for the test suites: one more canned case study
// and a seeded random app generator. The canned apps the examples run
// stay in appmodel/synthetic_apps.hpp.
#pragma once

#include <cstdint>

#include "appmodel/application.hpp"

namespace mecoff::appmodel {

/// Indoor SLAM navigation: camera+IMU pinned, tracking loop latency-
/// critical (heavy data per frame), mapping/relocalization offloadable.
[[nodiscard]] Application make_slam_navigation_app();

/// Randomized app with `functions` nodes for soak tests: clustered
/// call structure, ~`unoffloadable_fraction` of functions pinned.
[[nodiscard]] Application make_random_app(std::size_t functions,
                                          double unoffloadable_fraction,
                                          std::uint64_t seed);

}  // namespace mecoff::appmodel
