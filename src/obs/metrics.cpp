#include "obs/metrics.hpp"

#include <sstream>
#include <vector>

#include "common/contracts.hpp"
#include "obs/format.hpp"

namespace mecoff::obs {

void Gauge::add(double delta) {
  // fetch_add on atomic<double> is C++20; spelled as a CAS loop to stay
  // portable across older libstdc++ floating-point atomics.
  double cur = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry::Entry& MetricsRegistry::find_or_create(
    std::string_view name, Kind kind) {
  const MutexLock lock(mutex_);
  const auto it = entries_.find(name);
  if (it != entries_.end()) {
    if (it->second.kind != kind)
      throw PreconditionError("metric '" + std::string(name) +
                              "' already registered as a different kind");
    return it->second;
  }
  Entry entry;
  entry.kind = kind;
  switch (kind) {
    case Kind::kCounter: entry.counter = std::make_unique<Counter>(); break;
    case Kind::kGauge: entry.gauge = std::make_unique<Gauge>(); break;
    case Kind::kQuantiles:
      entry.quantiles = std::make_unique<Quantiles>();
      break;
  }
  return entries_.emplace(std::string(name), std::move(entry))
      .first->second;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  return *find_or_create(name, Kind::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return *find_or_create(name, Kind::kGauge).gauge;
}

Quantiles& MetricsRegistry::quantiles(std::string_view name) {
  return *find_or_create(name, Kind::kQuantiles).quantiles;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const MutexLock lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case Kind::kCounter:
        snap.counters[name] = entry.counter->value();
        break;
      case Kind::kGauge:
        snap.gauges[name] = entry.gauge->value();
        break;
      case Kind::kQuantiles: {
        MetricsSnapshot::QuantilesValue q;
        q.count = entry.quantiles->count();
        q.sum = entry.quantiles->sum();
        q.window_size = entry.quantiles->window_size();
        if (q.window_size > 0) {  // empty window: keep zeros (JSON-safe)
          static constexpr double kQs[] = {0.5, 0.95, 0.99};
          const std::vector<double> values = entry.quantiles->quantiles(kQs);
          q.p50 = values[0];
          q.p95 = values[1];
          q.p99 = values[2];
          const Quantiles::Exemplar ex = entry.quantiles->max_exemplar();
          q.max_value = ex.value;
          q.max_request_id = ex.request_id;
        }
        snap.quantiles[name] = q;
        break;
      }
    }
  }
  return snap;
}

std::string MetricsRegistry::to_text() const {
  const MetricsSnapshot snap = snapshot();
  // One `name ...` line per instrument, merge-sorted by name across the
  // three kind maps (each already sorted) so the dump order is a single
  // global lexicographic order, stable across runs.
  std::map<std::string, std::string> lines;
  for (const auto& [name, value] : snap.counters)
    lines[name] = std::to_string(value);
  for (const auto& [name, value] : snap.gauges)
    lines[name] = format_double(value);
  for (const auto& [name, q] : snap.quantiles)
    lines[name] = "count=" + std::to_string(q.count) +
                  " sum=" + format_double(q.sum) +
                  " p50=" + format_double(q.p50) +
                  " p95=" + format_double(q.p95) +
                  " p99=" + format_double(q.p99);
  std::ostringstream out;
  for (const auto& [name, rendered] : lines)
    out << name << ' ' << rendered << '\n';
  return out.str();
}

std::string MetricsRegistry::to_json() const {
  const MetricsSnapshot snap = snapshot();
  std::ostringstream out;
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    if (!first) out << ',';
    first = false;
    out << '"' << name << "\":" << value;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    if (!first) out << ',';
    first = false;
    out << '"' << name << "\":" << format_double(value);
  }
  out << "},\"quantiles\":{";
  first = true;
  for (const auto& [name, q] : snap.quantiles) {
    if (!first) out << ',';
    first = false;
    out << '"' << name << "\":{\"count\":" << q.count
        << ",\"sum\":" << format_double(q.sum)
        << ",\"window\":" << q.window_size
        << ",\"p50\":" << format_double(q.p50)
        << ",\"p95\":" << format_double(q.p95)
        << ",\"p99\":" << format_double(q.p99)
        << ",\"max\":" << format_double(q.max_value)
        << ",\"max_request_id\":" << q.max_request_id << '}';
  }
  out << "}}";
  return out.str();
}

}  // namespace mecoff::obs
