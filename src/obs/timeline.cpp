#include "obs/timeline.hpp"

#include <algorithm>
#include <sstream>

#include "common/contracts.hpp"
#include "obs/format.hpp"

namespace mecoff::obs {
namespace {

const char* mode_name(Timeline::Mode mode) {
  switch (mode) {
    case Timeline::Mode::kManual: return "manual";
    case Timeline::Mode::kTick: return "tick";
    case Timeline::Mode::kWall: return "wall";
  }
  return "manual";
}

}  // namespace

Timeline::Timeline(Options options) : options_(std::move(options)) {
  MECOFF_EXPECTS(options_.capacity > 0);
  MECOFF_EXPECTS(options_.tick_period > 0);
  MECOFF_EXPECTS(options_.interval_seconds > 0.0);
  ring_.reserve(std::min<std::size_t>(options_.capacity, 64));
}

void Timeline::sample_now(std::uint64_t tick) {
  const MutexLock lock(mutex_);
  sample_locked(tick);
}

void Timeline::note_request() {
  const MutexLock lock(mutex_);
  ++requests_seen_;
  if (options_.mode == Mode::kTick &&
      requests_seen_ % options_.tick_period == 0) {
    sample_locked(requests_seen_);
  }
}

void Timeline::poll_wall() {
  const MutexLock lock(mutex_);
  if (options_.mode != Mode::kWall) return;
  const double now = since_construction_.elapsed_seconds();
  if (have_sample_ && now - last_sample_wall_ < options_.interval_seconds)
    return;
  sample_locked(requests_seen_);
}

void Timeline::sample_locked(std::uint64_t tick) {
  const MetricsRegistry& registry =
      options_.registry != nullptr ? *options_.registry
                                   : MetricsRegistry::global();
  const MetricsSnapshot snap = registry.snapshot();

  const auto retain = [this](const std::string& name) {
    if (options_.keys.empty()) return true;
    return std::find(options_.keys.begin(), options_.keys.end(), name) !=
           options_.keys.end();
  };

  Sample sample;
  sample.tick = tick;
  sample.wall_seconds = since_construction_.elapsed_seconds();

  const double delta_wall = sample.wall_seconds - prev_wall_;
  const std::uint64_t delta_ticks = tick >= prev_tick_ ? tick - prev_tick_ : 0;
  for (const auto& [name, value] : snap.counters) {
    if (!retain(name)) continue;
    CounterPoint point;
    point.value = value;
    const auto prev = prev_counters_.find(name);
    const std::uint64_t before = prev == prev_counters_.end() ? 0 : prev->second;
    point.delta = static_cast<std::int64_t>(value) -
                  static_cast<std::int64_t>(before);
    if (options_.mode == Mode::kWall) {
      point.rate = delta_wall > 0.0
                       ? static_cast<double>(point.delta) / delta_wall
                       : 0.0;
    } else {
      point.rate = delta_ticks > 0
                       ? static_cast<double>(point.delta) /
                             static_cast<double>(delta_ticks)
                       : 0.0;
    }
    sample.counters.emplace(name, point);
  }
  for (const auto& [name, value] : snap.gauges) {
    if (!retain(name)) continue;
    sample.gauges.emplace(name, value);
  }
  for (const auto& [name, q] : snap.quantiles) {
    if (!retain(name)) continue;
    sample.quantiles.emplace(name, q);
  }

  // Delta base advances on every sample, including ones later evicted.
  prev_counters_.clear();
  for (const auto& [name, value] : snap.counters) prev_counters_[name] = value;
  prev_tick_ = tick;
  prev_wall_ = sample.wall_seconds;
  last_sample_wall_ = sample.wall_seconds;
  have_sample_ = true;

  if (ring_.size() < options_.capacity) {
    ring_.push_back(std::move(sample));
  } else {
    ring_[head_] = std::move(sample);
    head_ = (head_ + 1) % options_.capacity;
  }
  ++samples_taken_;
}

std::size_t Timeline::size() const {
  const MutexLock lock(mutex_);
  return ring_.size();
}

std::uint64_t Timeline::samples_taken() const {
  const MutexLock lock(mutex_);
  return samples_taken_;
}

std::uint64_t Timeline::dropped() const {
  const MutexLock lock(mutex_);
  return samples_taken_ - ring_.size();
}

std::vector<Timeline::Sample> Timeline::samples() const {
  const MutexLock lock(mutex_);
  if (ring_.size() < options_.capacity) return ring_;  // not yet wrapped
  std::vector<Sample> ordered;
  ordered.reserve(ring_.size());
  ordered.insert(ordered.end(),
                 ring_.begin() + static_cast<std::ptrdiff_t>(head_),
                 ring_.end());
  ordered.insert(ordered.end(), ring_.begin(),
                 ring_.begin() + static_cast<std::ptrdiff_t>(head_));
  return ordered;
}

std::string Timeline::to_json() const {
  const std::vector<Sample> ordered = samples();
  std::uint64_t taken = 0;
  {
    const MutexLock lock(mutex_);
    taken = samples_taken_;
  }
  // Wall-clock fields appear only in wall mode: tick/manual documents
  // must be byte-identical across replays of the same request sequence.
  const bool with_wall = options_.mode == Mode::kWall;

  std::ostringstream out;
  out << "{\"schema\":\"mecoff.timeline.v1\",\"mode\":\""
      << mode_name(options_.mode) << "\",\"capacity\":" << options_.capacity
      << ",\"samples_taken\":" << taken
      << ",\"dropped\":" << (taken - ordered.size()) << ",\"samples\":[";
  bool first_sample = true;
  for (const Sample& s : ordered) {
    if (!first_sample) out << ',';
    first_sample = false;
    out << "{\"tick\":" << s.tick;
    if (with_wall)
      out << ",\"wall_seconds\":" << format_double(s.wall_seconds);
    out << ",\"counters\":{";
    bool first = true;
    for (const auto& [name, p] : s.counters) {
      if (!first) out << ',';
      first = false;
      out << '"' << name << "\":{\"value\":" << p.value
          << ",\"delta\":" << p.delta
          << ",\"rate\":" << format_double(p.rate) << '}';
    }
    out << "},\"gauges\":{";
    first = true;
    for (const auto& [name, v] : s.gauges) {
      if (!first) out << ',';
      first = false;
      out << '"' << name << "\":" << format_double(v);
    }
    out << "},\"quantiles\":{";
    first = true;
    for (const auto& [name, q] : s.quantiles) {
      if (!first) out << ',';
      first = false;
      out << '"' << name << "\":{\"count\":" << q.count
          << ",\"p50\":" << format_double(q.p50)
          << ",\"p95\":" << format_double(q.p95)
          << ",\"p99\":" << format_double(q.p99)
          << ",\"max\":" << format_double(q.max_value)
          << ",\"max_request_id\":" << q.max_request_id << '}';
    }
    out << "}}";
  }
  out << "]}";
  return out.str();
}

}  // namespace mecoff::obs
