#include "obs/serve/exposition.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <utility>
#include <vector>

#include "obs/format.hpp"

namespace mecoff::obs::serve {

std::string prometheus_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool legal = std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                       c == '_' || c == ':';
    out.push_back(legal ? c : '_');
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0])) != 0)
    out.insert(out.begin(), '_');
  return out;
}

namespace {

using Family = std::pair<std::string, std::string>;  // mangled name, block

void render_counters(const MetricsSnapshot& snap,
                     std::vector<Family>& families) {
  for (const auto& [name, value] : snap.counters) {
    const std::string prom = prometheus_name(name);
    std::ostringstream out;
    out << "# TYPE " << prom << " counter\n"
        << prom << ' ' << value << '\n';
    families.emplace_back(prom, out.str());
  }
}

void render_gauges(const MetricsSnapshot& snap,
                   std::vector<Family>& families) {
  for (const auto& [name, value] : snap.gauges) {
    const std::string prom = prometheus_name(name);
    std::ostringstream out;
    out << "# TYPE " << prom << " gauge\n"
        << prom << ' ' << format_double(value) << '\n';
    families.emplace_back(prom, out.str());
  }
}

void render_quantiles(const MetricsSnapshot& snap,
                      std::vector<Family>& families) {
  for (const auto& [name, q] : snap.quantiles) {
    const std::string prom = prometheus_name(name);
    std::ostringstream out;
    out << "# TYPE " << prom << " summary\n";
    // An empty window has no meaningful quantiles; Prometheus clients
    // expose NaN there, which scrapers accept for summary samples.
    const auto sample = [&](const char* quantile, double value) {
      out << prom << "{quantile=\"" << quantile << "\"} "
          << (q.window_size == 0 ? "NaN" : format_double(value)) << '\n';
    };
    sample("0.5", q.p50);
    sample("0.95", q.p95);
    sample("0.99", q.p99);
    out << prom << "_sum " << format_double(q.sum) << '\n'
        << prom << "_count " << q.count << '\n';
    families.emplace_back(prom, out.str());
  }
}

}  // namespace

std::string to_prometheus_text(const MetricsSnapshot& snapshot) {
  std::vector<Family> families;
  render_counters(snapshot, families);
  render_gauges(snapshot, families);
  render_quantiles(snapshot, families);
  // One global order over mangled names: byte-stable output, and
  // name-mangling collisions stay adjacent (easy to spot in a diff).
  std::sort(families.begin(), families.end(),
            [](const Family& a, const Family& b) { return a.first < b.first; });
  std::string out;
  for (const Family& family : families) out += family.second;
  return out;
}

}  // namespace mecoff::obs::serve
