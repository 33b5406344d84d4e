// TelemetryServer: the live observability surface of a solve loop.
//
// Wires the embedded HttpServer to the process-global instruments:
//
//   /metrics  Prometheus text exposition of the MetricsRegistry
//             (counters, gauges, and the sliding-window quantile
//             summaries — mec_solve_latency{quantile="..."})
//   /varz     the registry's JSON dump (the same document `metrics=1`
//             prints), plus trace/recorder meta counters
//   /healthz  liveness probe: 200 "ok" whenever the server answers.
//             Degraded solves are reported where they happen: the
//             serve.* counters on /metrics and the /flightz records.
//   /flightz  the flight recorder's current ring as JSON (the same
//             document an anomaly dump writes, anomaly=null)
//   /timez    the attached obs::Timeline's `mecoff.timeline.v1`
//             document (503 until set_timeline() wires one up)
//
// Serving OBSERVES: every route renders from snapshots of internally
// synchronized state, so a scrape can never perturb a running solve —
// tests/obs_serve_test.cpp extends the ObsEquivalence suite with
// exactly that claim (placement bits identical with the server up).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "obs/serve/http_server.hpp"
#include "obs/timeline.hpp"

namespace mecoff::obs::serve {

class TelemetryServer {
 public:
  TelemetryServer();

  /// Register an extra exact-path route next to the built-in four —
  /// how the CLI's serve-solve mode mounts its POST /solve ingest.
  /// Same contract as HttpServer::handle: call before start(), the
  /// handler runs on the connection workers. The route shows up in
  /// /varz's "routes" list (404s stay plain).
  void handle(std::string path, HttpServer::Handler handler);

  /// Splice an application section into the /varz document:
  /// `"key": <renderer()>` next to the built-in routes/metrics/trace/
  /// flight_recorder keys. The renderer must return a valid JSON value
  /// and, like handlers, runs on the connection workers — snapshot
  /// internally synchronized state, do not touch bare shared data.
  /// Call before start(). This is how serve-solve publishes scheme-
  /// cache health (entries, evictions, oldest age) without /metrics
  /// parsing.
  void add_varz_section(std::string key,
                        std::function<std::string()> renderer);

  /// Attach the timeline /timez serves. Call before start(); the
  /// Timeline must outlive the server (it is internally synchronized,
  /// so connection workers render it safely). nullptr (the default)
  /// leaves /timez answering 503 "no timeline configured".
  void set_timeline(const Timeline* timeline) { timeline_ = timeline; }

  /// Start serving on 127.0.0.1:`port` (0 = ephemeral). Returns the
  /// bound port.
  Result<std::uint16_t> start(std::uint16_t port);
  void stop();

  [[nodiscard]] bool running() const { return http_.running(); }
  [[nodiscard]] std::uint16_t port() const { return http_.port(); }
  [[nodiscard]] std::uint64_t requests_served() const {
    return http_.requests_served();
  }

 private:
  HttpServer http_;
  /// Pre-start registered; the pointee is internally synchronized.
  const Timeline* timeline_ = nullptr;
  /// Pre-start registered, read-only while serving (same discipline as
  /// the route table).
  std::vector<std::pair<std::string, std::function<std::string()>>>
      varz_sections_;
};

}  // namespace mecoff::obs::serve
