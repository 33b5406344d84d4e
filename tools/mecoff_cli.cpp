// mecoff_cli — command-line driver for the library.
//
//   mecoff_cli generate nodes=1000 edges=4912 [seed=1] [components=8]
//       emit a NETGEN-style graph as an edge list on stdout
//   mecoff_cli compress <graph.edgelist> [threshold=10]
//       run Algorithm 1, print Table-I style statistics
//   mecoff_cli cut <graph.edgelist> [algo=spectral|maxflow|kl|sw]
//       two-way cut, print cut weight and side sizes ([dot=out.dot])
//   mecoff_cli solve <app.dsl> [pc=1 pt=8 b=20 ic=5 is=50 kappa=0.02
//                               algo=spectral|maxflow|kl]
//       full pipeline on a DSL application, print placement and bill
//   mecoff_cli simulate <app.dsl> [same params]
//       solve, then replay the scheme on the batch simulator
//   mecoff_cli stats <graph.edgelist>
//       validate the file and print structural statistics
//   mecoff_cli serve-solve <app.dsl> [port=P threads=T shards=S
//                                     cache=N max_inflight=M clients=C
//                                     selfcheck=K duration=secs
//                                     deadline_budget=secs hedge=F
//                                     faults=script latency_scale=secs
//                                     timeline=N timeline_interval=secs
//                                     request_id_header=NAME
//                                     dump_dir=DIR ...solve params]
//       online solve service (SolveService): POST /solve takes an app
//       DSL body (empty body = the positional app) and answers with
//       the placement plus its cache provenance (hit/miss/coalesced/
//       shed/hedged/deadline); the four telemetry routes are mounted
//       alongside, /varz gaining a scheme_cache health section.
//       Requests are sharded over a T-worker pool and coalesced
//       through the content-addressed scheme cache (capacity N);
//       max_inflight=M caps admitted requests (the rest get the
//       all-local placement at once). selfcheck=K skips the
//       wait loop: C in-process client threads issue K requests,
//       verify bit-identity against a cold solve, and exit — the
//       self-contained smoke mode CI and ctest drive. duration=secs
//       (0 = until a signal) bounds the serving window otherwise.
//       deadline_budget= sets the default per-request budget (riders
//       hedge a duplicate solve after hedge=F of it, F in (0, 1]; an
//       exhausted budget degrades to all-local). faults= arms a fault
//       script whose times are REQUEST numbers on a serve::FaultInjector
//       (shard kills, injected solve latency, stolen cache publishes);
//       latency_scale= scales injected stalls. timeline=N mounts
//       GET /timez, sampled every N /solve requests (tick mode:
//       replayable, no wall-clock fields); timeline_interval=S samples
//       every S seconds instead (wall mode); the two are mutually
//       exclusive. Every response carries its correlation id on the
//       X-Mecoff-Request-Id header (request_id_header= renames it) and
//       the body's "cache:" line; a caller may supply its own id on the
//       same request header. SIGTERM drains gracefully: new requests
//       degrade instantly, in-flight ones finish, the flight recorder
//       dumps once (dump_dir= arms it), exit 0; SIGINT stops hard.
//
// `solve` accepts out=<file> to save the scheme; `simulate` accepts
// scheme=<file> to replay a saved scheme instead of re-solving. A file
// that out=, dot= or trace= cannot write is an error (exit 1) naming
// the path.
// Both accept deadline=<seconds> — a wall-clock solve budget past which
// remaining sub-graphs degrade to cheaper cuts (spectral → KL →
// all-remote) instead of hanging; fallback counts are printed.
//
// `solve`, `simulate` and `serve-solve` accept profile=<name> to start
// from a deployment preset (wifi_campus, lte_smallcell, mmwave_hotspot,
// congested_venue); explicit key=value options override preset fields.
// An unknown preset is a usage error (exit 2) that lists the presets.
// `solve`, `simulate` and `serve-solve` take algo=spectral|maxflow|kl
// for the cut step; any other name is a usage error (exit 2).
//
// Each command has a fixed key list (the known_keys call at its top):
// any other key is a usage error (exit 2, "unknown key <k>=") before
// anything runs, and so is any argument after the file that is not a
// key=value token (`generate` takes no file). `cut` rejects an unknown
// algo= name the same way, before it reads the graph. Every command parses its numeric options strictly: a
// malformed value is a usage error (exit 2), never a silent default.
// `generate` also rejects an out-of-range nodes=, edges=, seed=,
// components= or cluster_size=; `solve`/`simulate` a users= below 1 or
// threads= below 0; `serve-solve` a threads=, shards=, cache= or
// clients= below 1.
//
// Observability (see docs/observability.md):
//   users=<n>      replicate the application into an n-user system
//   threads=<n>    solve the per-user stage on an n-worker pool
//   trace=<file>   record spans and write chrome://tracing JSON
//   metrics=1      dump the metrics registry after the run
//
// All options are key=value tokens after the positional arguments.
#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include "appmodel/dsl_parser.hpp"
#include "common/config.hpp"
#include "common/stopwatch.hpp"
#include "common/strings.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/metrics.hpp"
#include "graph/validation.hpp"
#include "kl/kernighan_lin.hpp"
#include "lpa/pipeline.hpp"
#include "mec/costs.hpp"
#include "mec/offloader.hpp"
#include "mec/profiles.hpp"
#include "mec/scheme_io.hpp"
#include "mincut/bipartitioner.hpp"
#include "mincut/stoer_wagner.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/serve/telemetry_server.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/fault_injector.hpp"
#include "serve/solve_service.hpp"
#include "support/load_harness.hpp"
#include "sim/executor.hpp"
#include "sim/fault_script.hpp"
#include "spectral/bipartitioner.hpp"

namespace {

using namespace mecoff;

int usage() {
  std::fprintf(stderr,
               "usage: mecoff_cli <generate|compress|cut|solve|simulate|"
               "stats|serve-solve> [file] [key=value...]\n"
               "run with a subcommand for details (see tools/mecoff_cli.cpp "
               "header)\n");
  return 2;
}

Result<std::string> read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Opens `path`, hands the stream to `write` and closes it. False,
/// with `error: cannot write <path>` on stderr, when the file cannot be
/// opened or written in full.
template <typename Write>
bool write_file(const std::string& path, Write&& write) {
  std::ofstream out(path);
  if (out) {
    write(out);
    out.close();
  }
  if (out) return true;
  std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
  return false;
}

Result<graph::WeightedGraph> load_graph(const std::string& path) {
  const Result<std::string> text = read_file(path);
  if (!text.ok()) return text.error();
  return graph::parse_edge_list(text.value());
}

/// Strict numeric option parsing for every command: a PRESENT but
/// malformed value is a usage error (exit 2), never a silent fallback —
/// a typo'd duration= must not turn a bounded serve-solve run into a
/// forever-server.
bool strict_int(const Config& cfg, const char* key, long long fallback,
                long long& out) {
  out = fallback;
  if (!cfg.has(key)) return true;
  const std::string text = cfg.get_string(key, "");
  if (parse_int(text, out)) return true;
  std::fprintf(stderr, "usage error: %s= expects an integer, got '%s'\n",
               key, text.c_str());
  return false;
}

bool strict_double(const Config& cfg, const char* key, double fallback,
                   double& out) {
  out = fallback;
  if (!cfg.has(key)) return true;
  const std::string text = cfg.get_string(key, "");
  if (parse_double(text, out)) return true;
  std::fprintf(stderr, "usage error: %s= expects a number, got '%s'\n",
               key, text.c_str());
  return false;
}

/// Range check for a parsed count: below `min` is a usage error, never
/// clamped to `min`.
bool at_least(const char* key, long long value, long long min) {
  if (value >= min) return true;
  std::fprintf(stderr, "usage error: %s= must be at least %lld\n", key, min);
  return false;
}

/// The keys params_from reads.
constexpr std::string_view kParamKeys[] = {"profile", "pc", "pt", "b",
                                           "ic",      "is", "kappa"};

/// Every command names the keys it reads; any other key is a usage
/// error before anything runs, never ignored — a typo'd or retired key
/// must not run on defaults. `with_params` adds kParamKeys.
bool known_keys(const Config& cfg,
                std::initializer_list<std::string_view> keys,
                bool with_params = false) {
  for (const auto& [key, value] : cfg.entries()) {
    const auto is_key = [&key](std::string_view known) { return known == key; };
    if (std::none_of(keys.begin(), keys.end(), is_key) &&
        !(with_params && std::any_of(std::begin(kParamKeys),
                                     std::end(kParamKeys), is_key))) {
      std::fprintf(stderr, "usage error: unknown key %s=\n", key.c_str());
      return false;
    }
  }
  return true;
}

/// System parameters: the profile= preset (or the defaults), then the
/// pc=/pt=/b=/ic=/is=/kappa= overrides. False on an unknown preset or
/// a malformed override.
bool params_from(const Config& cfg, mec::SystemParams& p) {
  const std::string profile = cfg.get_string("profile", "");
  if (!profile.empty() && !mec::find_profile(profile, p)) {
    std::fprintf(stderr, "usage error: unknown profile '%s'; presets are:",
                 profile.c_str());
    for (const mec::NamedProfile& known : mec::all_profiles())
      std::fprintf(stderr, " %s", known.name.c_str());
    std::fprintf(stderr, "\n");
    return false;
  }
  return strict_double(cfg, "pc", p.mobile_power, p.mobile_power) &&
         strict_double(cfg, "pt", p.transmit_power, p.transmit_power) &&
         strict_double(cfg, "b", p.bandwidth, p.bandwidth) &&
         strict_double(cfg, "ic", p.mobile_capacity, p.mobile_capacity) &&
         strict_double(cfg, "is", p.server_capacity, p.server_capacity) &&
         strict_double(cfg, "kappa", p.contention_factor,
                       p.contention_factor);
}

/// The cut backend named by algo= (default spectral), shared by every
/// command that runs the pipeline. An unknown name is a usage error
/// (exit 2), never a silent spectral solve.
bool strict_backend(const Config& cfg, mec::CutBackend& out) {
  const std::string algo = cfg.get_string("algo", "spectral");
  if (algo == "spectral") {
    out = mec::CutBackend::kSpectral;
  } else if (algo == "maxflow") {
    out = mec::CutBackend::kMaxFlow;
  } else if (algo == "kl") {
    out = mec::CutBackend::kKernighanLin;
  } else {
    std::fprintf(stderr,
                 "usage error: algo= expects spectral|maxflow|kl, got '%s'\n",
                 algo.c_str());
    return false;
  }
  return true;
}

int cmd_stats(const std::string& path, const Config& cfg) {
  if (!known_keys(cfg, {})) return 2;
  const Result<graph::WeightedGraph> g = load_graph(path);
  if (!g.ok()) {
    std::fprintf(stderr, "error: %s\n", g.error().message.c_str());
    return 1;
  }
  const graph::ValidationReport report = graph::validate(g.value());
  if (!report.ok) {
    std::printf("INVALID graph:\n");
    for (const std::string& problem : report.problems)
      std::printf("  - %s\n", problem.c_str());
    return 1;
  }
  const graph::GraphStats stats = graph::compute_stats(g.value());
  std::printf("valid graph\n");
  std::printf("nodes: %zu  edges: %zu  avg degree: %s  max degree: %zu\n",
              stats.nodes, stats.edges,
              format_fixed(stats.avg_degree, 2).c_str(), stats.max_degree);
  std::printf("node weight: %s total  edge weight: %s total "
              "(range %s..%s)\n",
              format_fixed(stats.total_node_weight, 2).c_str(),
              format_fixed(stats.total_edge_weight, 2).c_str(),
              format_fixed(stats.min_edge_weight, 2).c_str(),
              format_fixed(stats.max_edge_weight, 2).c_str());
  const std::vector<std::size_t> hist =
      graph::degree_histogram(g.value());
  std::printf("degree histogram:");
  for (std::size_t d = 0; d < hist.size(); ++d)
    if (hist[d] > 0) std::printf(" %zu:%zu", d, hist[d]);
  std::printf("\n");
  return 0;
}

int cmd_generate(const Config& cfg) {
  // Checked before any cast: a negative size would wrap to SIZE_MAX and
  // allocate until std::bad_alloc, and a zero one would trip the
  // generator's preconditions. edges= defaults to 5 per node, clamped so
  // the product cannot overflow.
  long long nodes = 0;
  long long edges = 0;
  long long seed = 0;
  long long components = 0;
  long long cluster_size = 0;
  if (!known_keys(cfg, {"nodes", "edges", "seed", "components",
                        "cluster_size"}) ||
      !strict_int(cfg, "nodes", 1000, nodes) ||
      !strict_int(cfg, "edges", std::clamp(nodes, 0LL, LLONG_MAX / 5) * 5,
                  edges) ||
      !strict_int(cfg, "seed", 1, seed) ||
      !strict_int(cfg, "components", 4, components) ||
      !strict_int(cfg, "cluster_size", 8, cluster_size))
    return 2;
  const auto out_of_range = [](const char* key, const char* range,
                               long long got) {
    std::fprintf(stderr, "usage error: %s= expects %s, got %lld\n", key,
                 range, got);
    return 2;
  };
  if (nodes < 1) return out_of_range("nodes", "an integer >= 1", nodes);
  if (edges < 0) return out_of_range("edges", "an integer >= 0", edges);
  if (seed < 0) return out_of_range("seed", "an integer >= 0", seed);
  if (components < 1 || components > nodes)
    return out_of_range("components", "an integer in [1, nodes]",
                        components);
  if (cluster_size < 1)
    return out_of_range("cluster_size", "an integer >= 1", cluster_size);
  graph::NetgenParams p;
  p.nodes = static_cast<std::size_t>(nodes);
  p.edges = static_cast<std::size_t>(edges);
  p.seed = static_cast<std::uint64_t>(seed);
  p.components = static_cast<std::size_t>(components);
  p.cluster_size = static_cast<std::size_t>(cluster_size);
  std::fputs(graph::to_edge_list(graph::netgen_style(p)).c_str(), stdout);
  return 0;
}

int cmd_compress(const std::string& path, const Config& cfg) {
  lpa::PropagationConfig config;
  if (!known_keys(cfg, {"threshold"}) ||
      !strict_double(cfg, "threshold", 10.0, config.coupling_threshold))
    return 2;
  const Result<graph::WeightedGraph> g = load_graph(path);
  if (!g.ok()) {
    std::fprintf(stderr, "error: %s\n", g.error().message.c_str());
    return 1;
  }
  const std::vector<bool> pinned(g.value().num_nodes(), false);
  const lpa::CompressionPipelineResult result =
      lpa::compress_application(g.value(), pinned, config);
  const lpa::CompressionStats stats = result.aggregate_stats();
  std::printf("functions:            %zu -> %zu (%s%% reduction)\n",
              stats.original_nodes, stats.compressed_nodes,
              format_fixed(100.0 * stats.node_reduction(), 1).c_str());
  std::printf("edges:                %zu -> %zu\n", stats.original_edges,
              stats.compressed_edges);
  std::printf("components:           %zu\n", result.components.size());
  std::printf("absorbed edge weight: %s\n",
              format_fixed(stats.absorbed_edge_weight, 2).c_str());
  return 0;
}

std::unique_ptr<graph::Bipartitioner> make_cutter(const std::string& algo) {
  if (algo == "spectral")
    return std::make_unique<spectral::SpectralBipartitioner>();
  if (algo == "maxflow")
    return std::make_unique<mincut::MaxFlowBipartitioner>();
  if (algo == "kl")
    return std::make_unique<kl::KernighanLinBipartitioner>();
  return nullptr;
}

int cmd_cut(const std::string& path, const Config& cfg) {
  if (!known_keys(cfg, {"algo", "dot"})) return 2;
  // Checked before the graph is read, as solve checks its algo=.
  const std::string algo = cfg.get_string("algo", "spectral");
  const std::unique_ptr<graph::Bipartitioner> cutter = make_cutter(algo);
  if (cutter == nullptr && algo != "sw") {
    std::fprintf(stderr,
                 "usage error: unknown algo '%s' (spectral|maxflow|kl|sw)\n",
                 algo.c_str());
    return 2;
  }
  const Result<graph::WeightedGraph> g = load_graph(path);
  if (!g.ok()) {
    std::fprintf(stderr, "error: %s\n", g.error().message.c_str());
    return 1;
  }
  const graph::Bipartition cut = cutter != nullptr
                                     ? cutter->bipartition(g.value())
                                     : mincut::stoer_wagner(g.value());
  std::printf("algorithm:  %s\n", algo.c_str());
  std::printf("cut weight: %s\n", format_fixed(cut.cut_weight, 4).c_str());
  std::printf("side sizes: %zu / %zu\n", cut.size(0), cut.size(1));
  const std::string dot_path = cfg.get_string("dot", "");
  if (!dot_path.empty()) {
    if (!write_file(dot_path, [&](std::ostream& out) {
          out << graph::to_dot(g.value(), cut.side);
        }))
      return 1;
    std::printf("wrote %s\n", dot_path.c_str());
  }
  return 0;
}

Result<appmodel::Application> load_app(const std::string& path) {
  const Result<std::string> text = read_file(path);
  if (!text.ok()) return text.error();
  return appmodel::parse_app_dsl(text.value());
}

/// Exit summary of the observability layer: the trace drop counter plus
/// every quantile window's totals. One glance answers "did tracing drop
/// events?" and "how many samples landed where?".
void print_obs_summary() {
  std::printf("obs summary: trace events=%zu dropped=%zu\n",
              obs::TraceCollector::global().event_count(),
              obs::TraceCollector::global().dropped_count());
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  for (const auto& [name, q] : snap.quantiles)
    std::printf("obs summary: quantiles %s count=%llu window=%zu "
                "p50=%s p95=%s p99=%s\n",
                name.c_str(), static_cast<unsigned long long>(q.count),
                q.window_size, format_fixed(q.p50, 6).c_str(),
                format_fixed(q.p95, 6).c_str(),
                format_fixed(q.p99, 6).c_str());
}

int cmd_solve(const std::string& path, const Config& cfg, bool simulate) {
  mec::PipelineOptions options;
  mec::SystemParams params;
  long long users_arg = 0;
  long long metrics_arg = 0;
  long long threads_arg = 0;
  if (!known_keys(cfg,
                  {"algo", "users", "metrics", "threads", "threshold",
                   "deadline", "trace", "scheme", "out"},
                  /*with_params=*/true) ||
      !strict_backend(cfg, options.backend) || !params_from(cfg, params) ||
      !strict_int(cfg, "users", 1, users_arg) ||
      !strict_int(cfg, "metrics", 0, metrics_arg) ||
      !strict_int(cfg, "threads", 0, threads_arg) ||
      !strict_double(cfg, "threshold", 10.0,
                     options.propagation.coupling_threshold) ||
      !strict_double(cfg, "deadline", -1.0, options.deadline.seconds))
    return 2;
  if (!at_least("users", users_arg, 1) ||
      !at_least("threads", threads_arg, 0))
    return 2;
  const Result<appmodel::Application> parsed = load_app(path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.error().message.c_str());
    return 1;
  }
  const appmodel::Application& app = parsed.value();

  mec::UserApp user;
  user.graph = app.to_graph();
  user.unoffloadable = app.unoffloadable_mask();
  user.components = app.component_ids();
  const auto num_users = static_cast<std::size_t>(users_arg);
  mec::MecSystem system{params, {}};
  system.users.assign(num_users, user);

  // Observability surface: tracing must be on BEFORE the solve so the
  // compress/cut/eigensolve spans land in the export.
  const std::string trace_path = cfg.get_string("trace", "");
  const bool dump_metrics = metrics_arg != 0;
  if (!trace_path.empty()) obs::TraceCollector::global().enable();

  const auto threads = static_cast<std::size_t>(threads_arg);
  std::unique_ptr<parallel::ThreadPool> pool;
  if (threads > 0) {
    pool = std::make_unique<parallel::ThreadPool>(threads);
    options.pool = pool.get();
  }
  mec::PipelineOffloader offloader(options);

  mec::OffloadingScheme scheme;
  std::string scheme_source = offloader.name() + " pipeline";
  const std::string scheme_path = cfg.get_string("scheme", "");
  if (!scheme_path.empty()) {
    const Result<std::string> text = read_file(scheme_path);
    if (!text.ok()) {
      std::fprintf(stderr, "error: %s\n", text.error().message.c_str());
      return 1;
    }
    Result<mec::OffloadingScheme> loaded =
        mec::parse_scheme_text(text.value());
    if (!loaded.ok()) {
      std::fprintf(stderr, "scheme error: %s\n",
                   loaded.error().message.c_str());
      return 1;
    }
    scheme = std::move(loaded).value();
    if (!scheme.valid_for(system)) {
      std::fprintf(stderr,
                   "scheme error: shape does not fit this application "
                   "(or offloads a pinned function)\n");
      return 1;
    }
    scheme_source = "replayed from " + scheme_path;
  } else {
    scheme = offloader.solve(system);
    const mec::PipelineOffloader::SolveStats& stats = offloader.last_stats();
    std::printf("solver: %zu parts, %zu greedy moves, %ss\n",
                stats.num_parts, stats.greedy_moves,
                format_fixed(stats.total_seconds, 3).c_str());
    if (stats.degraded() || stats.deadline_expired)
      std::printf("solver degraded: %zu non-converged eigensolves, "
                  "%zu KL recuts, %zu all-remote fallbacks%s\n",
                  stats.spectral_nonconverged, stats.fallback_kl_cuts,
                  stats.fallback_all_remote,
                  stats.deadline_expired ? " (deadline expired)" : "");
  }
  const mec::SystemCost cost = mec::evaluate(system, scheme);

  std::printf("app '%s' (%zu functions) — %s\n", app.name().c_str(),
              app.num_functions(), scheme_source.c_str());
  for (std::size_t i = 0; i < app.num_functions(); ++i) {
    const appmodel::FunctionInfo& fn = app.function(i);
    std::printf("  %-20s -> %s%s\n", fn.name.c_str(),
                scheme.placement[0][i] == mec::Placement::kLocal ? "device"
                                                                 : "server",
                fn.unoffloadable ? " (pinned)" : "");
  }
  std::printf("analytic bill: E = %s  T = %s  E+T = %s\n",
              format_fixed(cost.total_energy, 3).c_str(),
              format_fixed(cost.total_time, 3).c_str(),
              format_fixed(cost.objective(), 3).c_str());

  const std::string out_path = cfg.get_string("out", "");
  if (!out_path.empty()) {
    if (!write_file(out_path, [&](std::ostream& out) {
          mec::write_scheme(scheme, out);
        }))
      return 1;
    std::printf("wrote scheme to %s\n", out_path.c_str());
  }

  if (simulate) {
    const sim::SimReport batch = sim::simulate_scheme(system, scheme);
    std::printf("batch DES:     energy = %s  makespan = %s  "
                "(events: %zu)\n",
                format_fixed(batch.total_energy, 3).c_str(),
                format_fixed(batch.makespan, 3).c_str(), batch.events);
  }

  // Observability dump happens last so the spans/counters from the solve
  // AND the simulation (if any) are included.
  if (!trace_path.empty()) {
    if (!write_file(trace_path, [](std::ostream& out) {
          obs::TraceCollector::global().write_chrome_trace(out);
        }))
      return 1;
    std::printf("wrote %zu trace events to %s (dropped %zu)\n",
                obs::TraceCollector::global().event_count(),
                trace_path.c_str(),
                obs::TraceCollector::global().dropped_count());
  }
  if (dump_metrics) {
    std::printf("--- metrics ---\n%s",
                obs::MetricsRegistry::global().to_text().c_str());
  }
  if (dump_metrics || !trace_path.empty()) print_obs_summary();
  return 0;
}

// ---------------------------------------------------------------------------
// serve-solve: the online solve service — per-request ingest over
// HTTP, sharded across a pool, coalesced through the scheme cache.

volatile std::sig_atomic_t g_stop = 0;
void handle_stop_signal(int) { g_stop = 1; }

/// SIGTERM on serve-solve means DRAIN, not die: degrade new requests,
/// finish in-flight ones, dump the flight recorder, exit 0.
volatile std::sig_atomic_t g_drain = 0;
void handle_drain_signal(int) { g_drain = 1; }

mec::UserApp user_from_app(const appmodel::Application& app) {
  mec::UserApp user;
  user.graph = app.to_graph();
  user.unoffloadable = app.unoffloadable_mask();
  user.components = app.component_ids();
  return user;
}

const char* source_name(serve::SolveSource source) {
  switch (source) {
    case serve::SolveSource::kSolved: return "miss";
    case serve::SolveSource::kCacheHit: return "hit";
    case serve::SolveSource::kCoalesced: return "coalesced";
    case serve::SolveSource::kShed: return "shed";
    case serve::SolveSource::kHedged: return "hedged";
    case serve::SolveSource::kDeadlineDegraded: return "deadline";
  }
  return "unknown";
}

int cmd_serve_solve(const std::string& path, const Config& cfg) {
  mec::SystemParams params;

  long long threads_arg = 0;
  long long shards_arg = 0;
  long long cache_arg = 0;
  long long max_inflight = 0;
  long long selfcheck = 0;
  long long clients_arg = 0;
  long long port_arg = 0;
  long long timeline_period = 0;
  double duration = 0.0;
  double deadline_budget = -1.0;
  double hedge = 0.5;
  double latency_scale = 0.05;
  double timeline_interval = 0.0;
  double threshold = 10.0;
  double deadline = -1.0;
  mec::CutBackend backend = mec::CutBackend::kSpectral;
  if (!known_keys(cfg,
                  {"threads", "shards", "cache", "max_inflight", "selfcheck",
                   "clients", "port", "timeline", "duration",
                   "deadline_budget", "hedge", "latency_scale",
                   "timeline_interval", "threshold", "deadline", "algo",
                   "request_id_header", "faults", "dump_dir"},
                  /*with_params=*/true) ||
      !params_from(cfg, params) ||
      !strict_int(cfg, "threads", 4, threads_arg) ||
      !strict_int(cfg, "shards", 4, shards_arg) ||
      !strict_int(cfg, "cache", 1024, cache_arg) ||
      !strict_int(cfg, "max_inflight", -1, max_inflight) ||
      !strict_int(cfg, "selfcheck", 0, selfcheck) ||
      !strict_int(cfg, "clients", 2, clients_arg) ||
      !strict_int(cfg, "port", 0, port_arg) ||
      !strict_int(cfg, "timeline", 0, timeline_period) ||
      !strict_double(cfg, "duration", 0.0, duration) ||
      !strict_double(cfg, "deadline_budget", -1.0, deadline_budget) ||
      !strict_double(cfg, "hedge", 0.5, hedge) ||
      !strict_double(cfg, "latency_scale", 0.05, latency_scale) ||
      !strict_double(cfg, "timeline_interval", 0.0, timeline_interval) ||
      !strict_double(cfg, "threshold", 10.0, threshold) ||
      !strict_double(cfg, "deadline", -1.0, deadline) ||
      !strict_backend(cfg, backend))
    return 2;
  if (port_arg < 0 || port_arg > 65535) {
    std::fprintf(stderr, "usage error: port must be in [0, 65535]\n");
    return 2;
  }
  if (!at_least("threads", threads_arg, 1) ||
      !at_least("shards", shards_arg, 1) ||
      !at_least("cache", cache_arg, 1) ||
      !at_least("clients", clients_arg, 1))
    return 2;
  if (!(hedge > 0.0 && hedge <= 1.0)) {
    std::fprintf(stderr, "usage error: hedge= must be in (0, 1]\n");
    return 2;
  }
  if (timeline_period < 0) {
    std::fprintf(stderr,
                 "usage error: timeline= expects a positive request "
                 "period\n");
    return 2;
  }
  if (timeline_interval < 0.0) {
    std::fprintf(stderr,
                 "usage error: timeline_interval= expects a positive "
                 "number of seconds\n");
    return 2;
  }
  if (timeline_period > 0 && timeline_interval > 0.0) {
    std::fprintf(stderr,
                 "usage error: timeline= (tick mode) and "
                 "timeline_interval= (wall mode) are mutually "
                 "exclusive\n");
    return 2;
  }
  // The correlation-id header is caller-facing surface: a name with
  // spaces or ':' would corrupt the response head, so it is a usage
  // error, same contract as the numeric knobs.
  const std::string rid_header =
      cfg.get_string("request_id_header", "X-Mecoff-Request-Id");
  if (rid_header.empty() ||
      rid_header.find(' ') != std::string::npos ||
      rid_header.find(':') != std::string::npos) {
    std::fprintf(stderr,
                 "usage error: request_id_header= expects a header name "
                 "without spaces or ':', got '%s'\n", rid_header.c_str());
    return 2;
  }
  std::string rid_header_lower = rid_header;
  for (char& ch : rid_header_lower)
    ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));

  const Result<appmodel::Application> parsed = load_app(path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.error().message.c_str());
    return 1;
  }
  const appmodel::Application& app = parsed.value();
  const mec::UserApp base_user = user_from_app(app);

  parallel::ThreadPool pool(static_cast<std::size_t>(threads_arg));

  const auto shards = static_cast<std::size_t>(shards_arg);
  serve::FaultInjector::Options fault_options;
  fault_options.shards = shards;
  fault_options.latency_scale_seconds = latency_scale;
  serve::FaultInjector injector(fault_options);
  const std::string faults_path = cfg.get_string("faults", "");
  if (!faults_path.empty()) {
    const Result<std::string> text = read_file(faults_path);
    if (!text.ok()) {
      std::fprintf(stderr, "error: %s\n", text.error().message.c_str());
      return 1;
    }
    const Result<sim::FaultScript> script =
        sim::FaultScript::parse(text.value());
    if (!script.ok()) {
      std::fprintf(stderr, "error: %s: %s\n", faults_path.c_str(),
                   script.error().message.c_str());
      return 1;
    }
    injector.arm(script.value());
    std::printf("armed %zu fault events from %s "
                "(event times = request numbers)\n",
                script.value().size(), faults_path.c_str());
  }

  const std::string dump_dir = cfg.get_string("dump_dir", "");
  if (!dump_dir.empty())
    obs::FlightRecorder::global().set_dump_dir(dump_dir);

  serve::SolveServiceOptions sopts;
  sopts.pool = &pool;
  sopts.shards = shards;
  sopts.cache.capacity = static_cast<std::size_t>(cache_arg);
  if (max_inflight >= 0)
    sopts.max_in_flight = static_cast<std::size_t>(max_inflight);
  sopts.default_deadline_seconds = deadline_budget;
  sopts.hedge_fraction = hedge;
  if (!faults_path.empty()) sopts.injector = &injector;
  sopts.solver.propagation.coupling_threshold = threshold;
  sopts.solver.backend = backend;
  sopts.solver.deadline.seconds = deadline;
  serve::SolveService service(sopts);

  // GET /timez: the metrics timeline. timeline=N samples every N
  // /solve requests (tick mode — deterministic, replayable);
  // timeline_interval=S samples every S seconds from the idle loop
  // (wall mode). Neither knob -> 503 from the route.
  obs::Timeline::Options timeline_options;
  if (timeline_period > 0) {
    timeline_options.mode = obs::Timeline::Mode::kTick;
    timeline_options.tick_period =
        static_cast<std::uint64_t>(timeline_period);
  } else if (timeline_interval > 0.0) {
    timeline_options.mode = obs::Timeline::Mode::kWall;
    timeline_options.interval_seconds = timeline_interval;
  }
  obs::Timeline timeline(timeline_options);
  const bool timeline_enabled =
      timeline_period > 0 || timeline_interval > 0.0;

  obs::serve::TelemetryServer server;
  if (timeline_enabled) server.set_timeline(&timeline);
  // /varz gains the cache-health section operators watch during chaos:
  // occupancy, eviction pressure, rider timeouts, and how stale the
  // oldest ready entry is.
  server.add_varz_section("scheme_cache", [&service] {
    const serve::SolveService::Stats st = service.stats();
    return "{\"entries\":" + std::to_string(st.cache.entries) +
           ",\"evictions\":" + std::to_string(st.cache.evictions) +
           ",\"wait_timeouts\":" + std::to_string(st.cache.timeouts) +
           ",\"oldest_entry_age_seconds\":" +
           format_general(st.cache.oldest_entry_age_seconds, 6) + "}";
  });
  // POST /solve: body = app DSL (empty = the positional app); the
  // handler runs on the HTTP connection workers — external threads to
  // the pool, exactly what SolveService's threading contract wants.
  server.handle("/solve", [&service, &app, &base_user, &params, &timeline,
                           &rid_header, &rid_header_lower](
                              const obs::serve::HttpRequest& req) {
    obs::serve::HttpResponse resp;
    timeline.note_request();  // tick-mode driver; counts in any mode
    serve::SolveRequest sr;
    sr.params = params;
    // Caller-supplied correlation id: the request header (parser
    // lowercases names) must be a positive integer; the service
    // assigns one otherwise. Echoed on the response header and the
    // body's cache line either way.
    const auto rid_it = req.headers.find(rid_header_lower);
    if (rid_it != req.headers.end()) {
      long long caller_id = 0;
      if (!parse_int(rid_it->second, caller_id) || caller_id <= 0) {
        resp.status = 400;
        resp.body = "bad request id: '" + rid_it->second + "'\n";
        return resp;
      }
      sr.request_id = static_cast<std::uint64_t>(caller_id);
    }
    // The response names the functions of the app that was solved: the
    // posted one, or the served base app for an empty body.
    std::optional<appmodel::Application> posted;
    if (req.body.empty()) {
      sr.user = base_user;
    } else {
      Result<appmodel::Application> body_app =
          appmodel::parse_app_dsl(req.body);
      if (!body_app.ok()) {
        resp.status = 400;
        resp.body = "app error: " + body_app.error().message + "\n";
        return resp;
      }
      posted.emplace(std::move(body_app).value());
      sr.user = user_from_app(*posted);
    }
    const appmodel::Application& solved_app = posted ? *posted : app;
    const Result<serve::SolveResponse> solved = service.solve(sr);
    if (!solved.ok()) {
      resp.status = 400;
      resp.body = "solve error: " + solved.error().message + "\n";
      return resp;
    }
    const serve::SolveResponse& r = solved.value();
    resp.extra_headers.push_back(
        {rid_header, std::to_string(r.request_id)});
    resp.body = std::string("cache: ") + source_name(r.source) + " id=" +
                std::to_string(r.request_id);
    if (r.degraded && r.source != serve::SolveSource::kShed)
      resp.body += " degraded";
    resp.body += '\n';
    // One "<name> device\n" or "<name> server\n" line per function:
    // both suffixes are 8 bytes, so the body is sized once.
    std::size_t body_size = resp.body.size();
    for (std::size_t i = 0; i < r.placement.size(); ++i)
      body_size += solved_app.function(i).name.size() + 8;
    resp.body.reserve(body_size);
    for (std::size_t i = 0; i < r.placement.size(); ++i) {
      resp.body += solved_app.function(i).name;
      resp.body += r.placement[i] == mec::Placement::kLocal ? " device\n"
                                                            : " server\n";
    }
    return resp;
  });

  // Handlers BEFORE the banner: once "serving solves" is visible a
  // supervisor may signal immediately (the drain ctest does).
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_drain_signal);

  const Result<std::uint16_t> bound =
      server.start(static_cast<std::uint16_t>(port_arg));
  if (!bound.ok()) {
    std::fprintf(stderr, "error: %s\n", bound.error().message.c_str());
    return 1;
  }
  std::printf("serving solves on 127.0.0.1:%u "
              "(/solve /metrics /varz /healthz /flightz%s)\n",
              static_cast<unsigned>(bound.value()),
              timeline_enabled ? " /timez" : "");
  std::fflush(stdout);

  if (selfcheck > 0) {
    // Self-contained closed loop on the shared load harness — the same
    // machinery bench_serve and bench_soak drive, so plain-sh ctest
    // smokes the whole ingest → shard → cache → solve path. The
    // reference placement comes from a cold solve with the same solver
    // configuration; every full-quality served placement must match it
    // bit for bit (cache hits are REUSE, not approximation).
    mec::PipelineOptions ref_options = sopts.solver;
    ref_options.pool = &pool;
    mec::PipelineOffloader reference(ref_options);
    mec::MecSystem ref_system{params, {base_user}};
    const mec::OffloadingScheme ref_scheme = reference.solve(ref_system);

    const auto clients = static_cast<std::size_t>(clients_arg);
    const auto total = static_cast<std::size_t>(selfcheck);
    bench::LoadOptions load;
    load.clients = clients;
    load.total_requests = total;
    load.deadline_seconds = deadline_budget;
    const bench::LoadOutcome outcome = bench::run_load(
        service, {serve::SolveRequest{base_user, params}},
        {ref_scheme.placement[0]}, load);
    std::printf("selfcheck: %zu requests from %zu clients, "
                "%zu mismatches, %zu errors\n",
                total, clients, outcome.mismatches, outcome.errors);
  } else {
    const Stopwatch up;
    while (g_stop == 0 && g_drain == 0 &&
           (duration <= 0.0 || up.elapsed_seconds() < duration)) {
      // Wall-mode timeline driver: no extra thread, the idle loop IS
      // the timer (cheap no-op in tick/manual mode).
      timeline.poll_wall();
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }

  if (g_drain != 0) {
    // Graceful drain: new requests degrade to all-local instantly,
    // in-flight ones run to completion, the flight recorder dumps its
    // post-mortem EXACTLY once, and we exit 0 — SIGTERM is a handoff,
    // not a failure.
    std::printf("drain: SIGTERM received, degrading new requests\n");
    service.begin_drain();
    const bool idle = service.await_idle(/*timeout_seconds=*/10.0);
    server.stop();
    std::printf("drain: in-flight %s\n",
                idle ? "work complete" : "work NOT idle after 10 s");
    const Result<std::string> dumped =
        obs::FlightRecorder::global().dump_now("drain");
    if (dumped.ok())
      std::printf("drain: flight recorder dumped to %s\n",
                  dumped.value().c_str());
    else
      std::printf("drain: flight recorder dump skipped (%s)\n",
                  dumped.error().message.c_str());
  } else {
    server.stop();
  }

  const serve::SolveService::Stats st = service.stats();
  std::printf("serve-solve: %llu requests, %llu cold solves, "
              "%llu cache hits, %llu coalesced, %llu shed, %llu degraded\n",
              static_cast<unsigned long long>(st.requests),
              static_cast<unsigned long long>(st.solved),
              static_cast<unsigned long long>(st.cache_hits),
              static_cast<unsigned long long>(st.coalesced),
              static_cast<unsigned long long>(st.shed),
              static_cast<unsigned long long>(st.degraded));
  std::printf("resilience: %llu hedged, %llu deadline-degraded, "
              "%llu drained, %llu shard failovers\n",
              static_cast<unsigned long long>(st.hedged),
              static_cast<unsigned long long>(st.deadline_degraded),
              static_cast<unsigned long long>(st.drained),
              static_cast<unsigned long long>(st.shard_failovers));
  std::printf("scheme cache: %zu entries, %llu evictions, "
              "%llu wait timeouts, oldest ready %s s\n",
              st.cache.entries,
              static_cast<unsigned long long>(st.cache.evictions),
              static_cast<unsigned long long>(st.cache.timeouts),
              format_general(st.cache.oldest_entry_age_seconds, 3).c_str());
  std::printf("served %llu http requests%s\n",
              static_cast<unsigned long long>(server.requests_served()),
              g_drain != 0   ? " (drained)"
              : g_stop != 0 ? " (interrupted)"
                            : "");
  print_obs_summary();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  // key=value options start after the positional file argument (if any).
  const bool has_file = argc >= 3 && std::strchr(argv[2], '=') == nullptr;
  const std::string file = has_file ? argv[2] : "";
  const int opt_start = has_file ? 2 : 1;
  // Every later argument must be key=value: a bare word (a second file
  // name, a typo) is a usage error, never dropped with a warning.
  // `generate` reads no file, so its first bare word is one too.
  for (int i = command == "generate" ? 2 : opt_start + 1; i < argc; ++i) {
    if (std::strchr(argv[i], '=') == nullptr) {
      std::fprintf(stderr,
                   "usage error: unexpected argument '%s' (options are "
                   "key=value)\n",
                   argv[i]);
      return 2;
    }
  }
  const Config cfg =
      Config::from_args(argc - opt_start, argv + opt_start);

  if (command == "generate") return cmd_generate(cfg);
  if (command == "compress" && has_file) return cmd_compress(file, cfg);
  if (command == "cut" && has_file) return cmd_cut(file, cfg);
  if (command == "solve" && has_file) return cmd_solve(file, cfg, false);
  if (command == "simulate" && has_file) return cmd_solve(file, cfg, true);
  if (command == "stats" && has_file) return cmd_stats(file, cfg);
  if (command == "serve-solve" && has_file) return cmd_serve_solve(file, cfg);
  return usage();
}
