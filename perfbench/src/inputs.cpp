#include "inputs.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "appmodel/dsl_parser.hpp"
#include "common.hpp"
#include "http.hpp"
#include "mec/costs.hpp"

namespace perfbench {

mec::PipelineOptions cli_solver_options() {
  mec::PipelineOptions options;
  options.propagation.coupling_threshold = 10.0;
  return options;
}

mec::SystemParams cli_params() { return bench::paper_params(); }

std::vector<std::string> cli_param_flags() {
  // Spelled so that the CLI's parse yields exactly cli_params().
  return {"pc=1", "pt=16", "b=20", "ic=5", "is=50", "kappa=0.02"};
}

mec::UserApp extract_user(const appmodel::Application& app) {
  mec::UserApp user;
  user.graph = app.to_graph();
  user.unoffloadable = app.unoffloadable_mask();
  user.components = app.component_ids();
  return user;
}

namespace {

/// The app DSL body of `user`, named `prefix` + `seed`, functions named
/// f0, f1, ...
std::string app_dsl(const mec::UserApp& user, std::string prefix,
                    std::uint64_t seed) {
  prefix += std::to_string(seed);
  appmodel::Application app(prefix);
  for (graph::NodeId v = 0; v < user.graph.num_nodes(); ++v) {
    appmodel::FunctionInfo info;
    info.name = "f";
    info.name += std::to_string(v);
    info.computation = user.graph.node_weight(v);
    info.unoffloadable = !user.unoffloadable.empty() && user.unoffloadable[v];
    app.add_function(std::move(info));
  }
  for (const graph::Edge& e : user.graph.edges())
    app.add_exchange(e.u, e.v, e.weight);
  return appmodel::to_app_dsl(app);
}

ServedApp served_app(const appmodel::Application& app,
                     const std::string& body, const mec::MecSystem& system,
                     const mec::OffloadingScheme& scheme) {
  ServedApp out;
  out.request = post_request("/solve", body);
  out.header_end = out.request.find("\r\n\r\n");
  out.body_bytes = body.size();
  out.reference = scheme.placement.front();
  for (std::size_t i = 0; i < app.num_functions(); ++i) {
    const std::string& name = app.function(i).name;
    out.expected += name;
    out.expected += out.reference[i] == mec::Placement::kLocal ? " device\n"
                                                                : " server\n";
    out.all_local += name;
    out.all_local += " device\n";
  }
  out.objective = mec::evaluate(system, scheme).objective();
  return out;
}

ServedApp build_app(const AppSpec& spec) {
  // A degraded cold solve (eigensolver below tolerance) is served but
  // never cached, so such an app could not be a steady workload input:
  // the generator moves on to the next seed in that rare case.
  constexpr int kAttempts = 8;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    const std::uint64_t seed = spec.seed + 0x9E3779B9ULL * attempt;
    const mec::UserApp generated = bench::make_user(spec.scale, seed);
    const std::string body = app_dsl(generated, "a", seed);

    // The oracle starts from the bytes the server receives: DSL numbers
    // are rounded, so the generated graph is not the served one.
    const auto parsed = appmodel::parse_app_dsl(body);
    if (!parsed.ok())
      throw std::runtime_error("generated DSL does not parse: " +
                               parsed.error().message);
    const appmodel::Application& app = parsed.value();
    mec::MecSystem system{cli_params(), {extract_user(app)}};
    mec::PipelineOffloader offloader(cli_solver_options());
    const mec::OffloadingScheme scheme = offloader.solve(system);
    if (!scheme.valid_for(system))
      throw std::runtime_error("reference solve returned an invalid scheme");
    if (offloader.last_stats().degraded()) continue;
    return served_app(app, body, system, scheme);
  }
  throw std::runtime_error("no non-degraded app near seed " +
                           std::to_string(spec.seed));
}

}  // namespace

std::vector<ServedApp> build_apps(const std::vector<AppSpec>& specs) {
  std::vector<ServedApp> apps(specs.size());
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  const auto work = [&] {
    for (std::size_t i = next++; i < specs.size(); i = next++) {
      try {
        apps[i] = build_app(specs[i]);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 1; t < kThreads; ++t) threads.emplace_back(work);
  work();
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
  return apps;
}

Stream poisson_stream(std::uint64_t seed, double rate_hz, double seconds,
                      const std::function<std::uint32_t(mecoff::Rng&)>& pick) {
  mecoff::Rng rng(seed);
  Stream stream;
  for (double t = rng.exponential(1.0 / rate_hz); t < seconds;
       t += rng.exponential(1.0 / rate_hz)) {
    stream.at.push_back(t);
    stream.app.push_back(pick(rng));
  }
  return stream;
}

Zipf::Zipf(std::size_t n, double exponent) : cdf_(n) {
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::uint32_t Zipf::operator()(mecoff::Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::uint32_t>(
      std::min<std::ptrdiff_t>(it - cdf_.begin(),
                               static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
}

}  // namespace perfbench
