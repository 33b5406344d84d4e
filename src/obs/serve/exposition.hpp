// Prometheus text exposition (format version 0.0.4) of a
// MetricsSnapshot.
//
// Mapping from the registry's instrument kinds:
//   Counter    -> `# TYPE <name> counter`  + one sample
//   Gauge      -> `# TYPE <name> gauge`    + one sample
//   Quantiles  -> `# TYPE <name> summary`: `<name>{quantile="0.5|0.95|
//                 0.99"}` over the sliding window, `<name>_sum`,
//                 `<name>_count` over every sample ever recorded
//
// Dotted registry names are mangled to the Prometheus grammar
// ([a-zA-Z_:][a-zA-Z0-9_:]*) by mapping every illegal byte to '_':
// "mec.solve.latency" -> "mec_solve_latency". Families are emitted
// sorted by mangled name, numbers rendered locale-independently, so
// the exposition is byte-stable for a given snapshot (golden-tested).
//
// Pure rendering, no sockets, so tests (and any push-gateway user) can
// expose without the server.
#pragma once

#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace mecoff::obs::serve {

/// Mangle a registry metric name into a legal Prometheus metric name.
[[nodiscard]] std::string prometheus_name(std::string_view name);

/// Render a whole snapshot in exposition text format.
[[nodiscard]] std::string to_prometheus_text(const MetricsSnapshot& snapshot);

}  // namespace mecoff::obs::serve
