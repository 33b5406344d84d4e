#include "obs/serve/telemetry_server.hpp"

#include <utility>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/serve/exposition.hpp"
#include "obs/trace.hpp"

namespace mecoff::obs::serve {

TelemetryServer::TelemetryServer() {
  http_.handle("/metrics", [](const HttpRequest&) {
    HttpResponse response;
    // The exposition-format version the Prometheus scraper negotiates.
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body =
        to_prometheus_text(MetricsRegistry::global().snapshot());
    return response;
  });
  http_.handle("/varz", [this](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/json";
    // The registered routes moved here from the 404 body: operator
    // information belongs on the operator surface, not in an error any
    // probing client sees.
    std::string routes = "[";
    for (const std::string& path : http_.route_paths()) {
      if (routes.size() > 1) routes += ',';
      routes += '"' + path + '"';
    }
    routes += ']';
    // The registry dump plus the collectors' meta counters, so one
    // scrape answers "is tracing dropping?" and "how many anomalies?".
    response.body =
        "{\"routes\":" + routes +
        ",\"metrics\":" + MetricsRegistry::global().to_json() +
        ",\"trace\":{\"events\":" +
        std::to_string(TraceCollector::global().event_count()) +
        ",\"dropped\":" +
        std::to_string(TraceCollector::global().dropped_count()) +
        "},\"flight_recorder\":{\"records\":" +
        std::to_string(FlightRecorder::global().total_records()) +
        ",\"anomalies\":" +
        std::to_string(FlightRecorder::global().anomaly_count()) +
        ",\"dumps\":" +
        std::to_string(FlightRecorder::global().dump_count()) + "}";
    for (const auto& [key, renderer] : varz_sections_)
      response.body += ",\"" + key + "\":" + renderer();
    response.body += '}';
    return response;
  });
  http_.handle("/healthz", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "ok\n";
    return response;
  });
  http_.handle("/flightz", [](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = FlightRecorder::global().to_json();
    return response;
  });
  http_.handle("/timez", [this](const HttpRequest&) {
    HttpResponse response;
    if (timeline_ == nullptr) {
      response.status = 503;
      response.body = "no timeline configured\n";
      return response;
    }
    response.content_type = "application/json";
    response.body = timeline_->to_json();
    return response;
  });
}

void TelemetryServer::handle(std::string path, HttpServer::Handler handler) {
  http_.handle(std::move(path), std::move(handler));
}

void TelemetryServer::add_varz_section(std::string key,
                                       std::function<std::string()> renderer) {
  varz_sections_.emplace_back(std::move(key), std::move(renderer));
}

Result<std::uint16_t> TelemetryServer::start(std::uint16_t port) {
  return http_.start(port);
}

void TelemetryServer::stop() { http_.stop(); }

}  // namespace mecoff::obs::serve
