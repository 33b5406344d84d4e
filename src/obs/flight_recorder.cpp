#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/contracts.hpp"
#include "obs/format.hpp"

namespace mecoff::obs {

const char* SolveRecord::fallback_level() const {
  if (fallback_all_remote > 0) return "all_remote";
  if (fallback_kl_cuts > 0) return "kl_recut";
  if (spectral_nonconverged > 0) return "spectral_retry";
  return "none";
}

const char* to_string(AnomalyKind kind) {
  switch (kind) {
    case AnomalyKind::kNone: return "none";
    case AnomalyKind::kDeadlineFallback: return "deadline_fallback";
    case AnomalyKind::kLatencyOutlier: return "latency_outlier";
  }
  return "unknown";
}

namespace {

void append_record_json(std::ostringstream& out, const SolveRecord& r) {
  out << "{\"seq\":" << r.seq
      << ",\"wall_time_us\":" << format_double(r.wall_time_us)
      << ",\"request_id\":" << r.request_id
      << ",\"users\":" << r.users
      << ",\"distinct_users\":" << r.distinct_users
      << ",\"parts\":" << r.parts
      << ",\"greedy_moves\":" << r.greedy_moves
      << ",\"compress_seconds\":" << format_double(r.compress_seconds)
      << ",\"cut_seconds\":" << format_double(r.cut_seconds)
      << ",\"greedy_seconds\":" << format_double(r.greedy_seconds)
      << ",\"total_seconds\":" << format_double(r.total_seconds)
      << ",\"final_objective\":" << format_double(r.final_objective)
      << ",\"spectral_nonconverged\":" << r.spectral_nonconverged
      << ",\"fallback_kl_cuts\":" << r.fallback_kl_cuts
      << ",\"fallback_all_remote\":" << r.fallback_all_remote
      << ",\"fallback_level\":\"" << r.fallback_level() << '"'
      << ",\"deadline_expired\":" << (r.deadline_expired ? "true" : "false")
      << ",\"trace_dropped\":" << r.trace_dropped << '}';
}

/// Writes `json` and a newline to `path`. False when the file does not
/// open or the write does not reach it: close() flushes, so a full disk
/// shows in the stream state after it.
bool write_dump(const std::string& path, const std::string& json) {
  std::ofstream out(path);
  out << json << '\n';
  out.close();
  return static_cast<bool>(out);
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity), epoch_(std::chrono::steady_clock::now()) {
  MECOFF_EXPECTS(capacity > 0);
  ring_.reserve(capacity);
}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder recorder;
  return recorder;
}

void FlightRecorder::set_dump_dir(std::string dir) {
  const MutexLock lock(mutex_);
  dump_dir_ = std::move(dir);
}

void FlightRecorder::set_latency_trigger(double factor,
                                         std::size_t min_samples) {
  const MutexLock lock(mutex_);
  latency_factor_ = factor;
  latency_min_samples_ = std::max<std::size_t>(min_samples, 2);
}

AnomalyKind FlightRecorder::classify_locked(const SolveRecord& r) const {
  // Trigger precedence mirrors severity: a degraded solve outranks a
  // plain slow outlier.
  if (r.degraded()) return AnomalyKind::kDeadlineFallback;
  if (latency_factor_ > 0.0 &&
      latency_window_.window_size() >= latency_min_samples_) {
    const double p95 = latency_window_.quantile(0.95);
    if (r.total_seconds > latency_factor_ * p95)
      return AnomalyKind::kLatencyOutlier;
  }
  return AnomalyKind::kNone;
}

AnomalyKind FlightRecorder::record(SolveRecord record) {
  std::string dump_json;
  std::string dump_path;
  AnomalyKind anomaly = AnomalyKind::kNone;
  {
    const MutexLock lock(mutex_);
    record.seq = next_seq_++;
    record.wall_time_us =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - epoch_)
            .count();

    // Classify against the window EXCLUDING this sample, so one slow
    // solve cannot inflate the very p95 it is judged against.
    anomaly = classify_locked(record);
    latency_window_.record(record.total_seconds);

    if (ring_.size() < capacity_) {
      ring_.push_back(record);
    } else {
      ring_[head_] = record;
      head_ = (head_ + 1) % capacity_;
    }

    if (anomaly != AnomalyKind::kNone) {
      ++anomalies_;
      if (!dump_dir_.empty()) {
        dump_json = render_json_locked(anomaly);
        dump_path = dump_dir_ + "/flight_" + std::to_string(record.seq) +
                    '_' + to_string(anomaly) + ".json";
      }
    }
  }
  // File IO outside the lock: a slow disk must not stall the feeders.
  if (!dump_path.empty() && write_dump(dump_path, dump_json)) {
    const MutexLock lock(mutex_);
    ++dumps_;
    last_dump_path_ = dump_path;
  }
  return anomaly;
}

Result<std::string> FlightRecorder::dump_now(const std::string& label) {
  std::string dump_json;
  std::string dump_path;
  {
    const MutexLock lock(mutex_);
    if (dump_dir_.empty())
      return Error("flight recorder: no dump_dir configured");
    dump_json = render_json_locked(AnomalyKind::kNone);
    dump_path =
        dump_dir_ + "/flight_" + std::to_string(next_seq_) + '_' + label +
        ".json";
  }
  // File IO outside the lock, like the anomaly path.
  if (!write_dump(dump_path, dump_json))
    return Error("flight recorder: cannot write " + dump_path);
  const MutexLock lock(mutex_);
  ++dumps_;
  last_dump_path_ = dump_path;
  return dump_path;
}

std::size_t FlightRecorder::size() const {
  const MutexLock lock(mutex_);
  return ring_.size();
}

std::uint64_t FlightRecorder::total_records() const {
  const MutexLock lock(mutex_);
  return next_seq_;
}

std::uint64_t FlightRecorder::anomaly_count() const {
  const MutexLock lock(mutex_);
  return anomalies_;
}

std::uint64_t FlightRecorder::dump_count() const {
  const MutexLock lock(mutex_);
  return dumps_;
}

std::string FlightRecorder::last_dump_path() const {
  const MutexLock lock(mutex_);
  return last_dump_path_;
}

std::vector<SolveRecord> FlightRecorder::snapshot() const {
  const MutexLock lock(mutex_);
  std::vector<SolveRecord> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(head_),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<std::ptrdiff_t>(head_));
  }
  return out;
}

std::string FlightRecorder::render_json_locked(AnomalyKind trigger) const {
  std::ostringstream out;
  out << "{\"schema\":\"mecoff.flight_recorder.v1\",\"anomaly\":";
  // The newest record is the culprit: records are appended before
  // rendering, so the ring's last element triggered the dump.
  const SolveRecord* culprit = nullptr;
  if (trigger != AnomalyKind::kNone && !ring_.empty()) {
    culprit = ring_.size() < capacity_
                  ? &ring_.back()
                  : &ring_[(head_ + capacity_ - 1) % capacity_];
  }
  if (culprit == nullptr) {
    out << "null";
  } else {
    out << "{\"kind\":\"" << to_string(trigger) << "\",\"seq\":"
        << culprit->seq << ",\"fallback_level\":\""
        << culprit->fallback_level() << "\",\"total_seconds\":"
        << format_double(culprit->total_seconds) << '}';
  }
  out << ",\"records\":[";
  bool first = true;
  const auto emit_range = [&out, &first](auto begin, auto end) {
    for (auto it = begin; it != end; ++it) {
      if (!first) out << ',';
      first = false;
      append_record_json(out, *it);
    }
  };
  if (ring_.size() < capacity_) {
    emit_range(ring_.begin(), ring_.end());
  } else {  // oldest to newest across the wrap point
    emit_range(ring_.begin() + static_cast<std::ptrdiff_t>(head_),
               ring_.end());
    emit_range(ring_.begin(),
               ring_.begin() + static_cast<std::ptrdiff_t>(head_));
  }
  out << "]}";
  return out.str();
}

std::string FlightRecorder::to_json(AnomalyKind trigger) const {
  const MutexLock lock(mutex_);
  return render_json_locked(trigger);
}

}  // namespace mecoff::obs
