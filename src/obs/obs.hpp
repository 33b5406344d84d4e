// Instrumentation facade: the macros every pipeline layer uses.
//
// Hot-path cost:
//  * spans: one relaxed atomic load when tracing is disabled at
//    runtime (the default); two clock reads + one uncontended mutexed
//    push_back when enabled;
//  * counters/gauges: a once-per-site registry lookup cached in a
//    function-local static, then one relaxed atomic RMW per hit;
//  * quantiles: the same cached lookup, then one short mutexed store.
//
// Naming convention (see docs/observability.md for the full taxonomy):
// metric and span names are dot-separated, lowercase, rooted at the
// owning layer — "lpa.propagation.rounds", "linalg.lanczos.matvecs",
// "mec.solve.compress_task_seconds", "sim.events".
#pragma once

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

// Token pasting needs two layers so __LINE__ expands first.
#define MECOFF_OBS_CONCAT_IMPL(a, b) a##b
#define MECOFF_OBS_CONCAT(a, b) MECOFF_OBS_CONCAT_IMPL(a, b)

/// Scoped trace span covering the rest of the enclosing block.
#define MECOFF_TRACE_SPAN(name)                      \
  [[maybe_unused]] const ::mecoff::obs::TraceSpan    \
      MECOFF_OBS_CONCAT(mecoff_obs_span_, __LINE__)( \
          name, ::mecoff::obs::kNoArg)

/// Span with one numeric argument (user index, event seq, ...).
#define MECOFF_TRACE_SPAN_ARG(name, arg)             \
  [[maybe_unused]] const ::mecoff::obs::TraceSpan    \
      MECOFF_OBS_CONCAT(mecoff_obs_span_, __LINE__)( \
          name, static_cast<std::uint64_t>(arg))

#define MECOFF_COUNTER_ADD(name, delta)                               \
  do {                                                                \
    static ::mecoff::obs::Counter& mecoff_obs_counter =               \
        ::mecoff::obs::MetricsRegistry::global().counter(name);       \
    mecoff_obs_counter.add(static_cast<std::uint64_t>(delta));        \
  } while (0)

#define MECOFF_GAUGE_SET(name, value)                                 \
  do {                                                                \
    static ::mecoff::obs::Gauge& mecoff_obs_gauge =                   \
        ::mecoff::obs::MetricsRegistry::global().gauge(name);         \
    mecoff_obs_gauge.set(static_cast<double>(value));                 \
  } while (0)

#define MECOFF_GAUGE_ADD(name, delta)                                 \
  do {                                                                \
    static ::mecoff::obs::Gauge& mecoff_obs_gauge =                   \
        ::mecoff::obs::MetricsRegistry::global().gauge(name);         \
    mecoff_obs_gauge.add(static_cast<double>(delta));                 \
  } while (0)

/// Record into a sliding-window quantile estimator (default window),
/// tagging the sample with the request id that produced it so the
/// window-maximum exemplar (/timez, /flightz) can name the request
/// behind a p99 bump. Pass 0 for "no id". NOT for per-node hot paths:
/// record() takes a short mutex — feed it once per user, solve or
/// request, where the lock is uncontended.
#define MECOFF_QUANTILES_RECORD_ID(name, value, id)                   \
  do {                                                                \
    static ::mecoff::obs::Quantiles& mecoff_obs_quant =               \
        ::mecoff::obs::MetricsRegistry::global().quantiles(name);     \
    mecoff_obs_quant.record(static_cast<double>(value),               \
                            static_cast<std::uint64_t>(id));          \
  } while (0)
