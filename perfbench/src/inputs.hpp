// Seeded workload inputs and their oracle: paper-scale applications
// serialized to app DSL exactly as a client would POST them, each with
// the placement an in-process cold solve gives under the CLI's options.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "appmodel/application.hpp"
#include "common.hpp"
#include "common/rng.hpp"
#include "mec/model.hpp"
#include "mec/offloader.hpp"
#include "mec/scheme.hpp"
#include "support/workloads.hpp"

namespace perfbench {

/// The solver options `mecoff_cli serve-solve` builds from the flags the
/// benchmark passes (threshold=10, every other option at its default).
[[nodiscard]] mec::PipelineOptions cli_solver_options();

/// System parameters of every served request: bench::paper_params(),
/// passed to the CLI as flags (cli_param_flags()).
[[nodiscard]] mec::SystemParams cli_params();
[[nodiscard]] std::vector<std::string> cli_param_flags();

/// The extraction step of the CLI's /solve handler.
[[nodiscard]] mec::UserApp extract_user(const appmodel::Application& app);

struct AppSpec {
  bench::PaperScale scale;
  std::uint64_t seed;
};

/// One application as the load generator sends it and the oracle
/// expects it back.
struct ServedApp {
  std::string request;         ///< complete POST /solve request bytes
  std::size_t header_end = 0;  ///< offset of the head's "\r\n\r\n"
  std::size_t body_bytes = 0;
  std::vector<mec::Placement> reference;  ///< in-process cold solve
  std::string expected;   ///< response body below the cache line
  std::string all_local;  ///< the same for an all-local (degraded) answer
  double objective = 0.0;  ///< E+T of the reference placement
};

/// make_user(spec) → Application → to_app_dsl body; then parse the body
/// back exactly as the server does and cold-solve it serially under
/// cli_solver_options(). Runs on kThreads threads.
[[nodiscard]] std::vector<ServedApp> build_apps(
    const std::vector<AppSpec>& specs);

/// An open-loop request stream: which app each request carries and when
/// it is due, in seconds from the start of the window.
struct Stream {
  std::vector<std::uint32_t> app;
  std::vector<double> at;
};

/// Poisson arrivals at `rate_hz` over [0, seconds); `pick` chooses each
/// request's app.
[[nodiscard]] Stream poisson_stream(
    std::uint64_t seed, double rate_hz, double seconds,
    const std::function<std::uint32_t(mecoff::Rng&)>& pick);

/// Sampler of ranks 0..n-1 with P(rank r) ∝ 1 / (r + 1)^exponent.
class Zipf {
 public:
  Zipf(std::size_t n, double exponent);
  [[nodiscard]] std::uint32_t operator()(mecoff::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace perfbench
