#include "trace.hpp"

#include <cstdio>
#include <map>
#include <stdexcept>
#include <string_view>

namespace perfbench {

int Tracer::open(const char* name, int parent, std::uint64_t request) {
  if (!recording_) return -1;
  spans_.push_back({name, parent, request, Clock::now(), {}});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::close(int span) {
  if (span < 0) return;
  spans_[static_cast<std::size_t>(span)].end = Clock::now();
}

int Tracer::record(const char* name, int parent, std::uint64_t request,
                   const Interval& when) {
  if (!recording_) return -1;
  spans_.push_back({name, parent, request, when.start, when.end});
  return static_cast<int>(spans_.size() - 1);
}

double Tracer::self_us(std::size_t span) const {
  if (child_us_.size() != spans_.size()) {
    child_us_.assign(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0)
        child_us_[static_cast<std::size_t>(s.parent)] +=
            seconds_between(s.start, s.end) * 1e6;
  }
  const Span& s = spans_[span];
  return seconds_between(s.start, s.end) * 1e6 - child_us_[span];
}

std::vector<double> Tracer::per_request(
    const char* name, bool self,
    const std::function<bool(std::uint64_t)>& keep) const {
  std::map<std::uint64_t, double> sums;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (std::string_view(s.name) != name || !keep(s.request)) continue;
    sums[s.request] += self ? self_us(i) : seconds_between(s.start, s.end) * 1e6;
  }
  std::vector<double> out;
  out.reserve(sums.size());
  for (const auto& [request, us] : sums) out.push_back(us);
  return out;
}

void write_spans(const RunOptions& run, const Tracer& tracer) {
  const std::string path = run.work + "/spans-" + run.workload + "-" +
                           std::to_string(run.seed) + ".tsv";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(out, "id\tparent\trequest\tname\tstart_us\tend_us\n");
  const std::vector<Tracer::Span>& spans = tracer.spans();
  const Clock::time_point origin =
      spans.empty() ? Clock::time_point{} : spans.front().start;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    std::fprintf(out, "%zu\t%d\t%llu\t%s\t%.3f\t%.3f\n", i, s.parent,
                 static_cast<unsigned long long>(s.request), s.name,
                 seconds_between(origin, s.start) * 1e6,
                 seconds_between(origin, s.end) * 1e6);
  }
  if (std::fclose(out) != 0) throw std::runtime_error("cannot write " + path);
  Report::note("spans: " + std::to_string(spans.size()) + " written to " +
               path);
}

}  // namespace perfbench
