// Anomaly flight recorder: a ring buffer of the last N completed solve
// records that auto-dumps a post-mortem JSON when something went wrong.
//
// Every PipelineOffloader::solve() appends one SolveRecord (fed from
// the same doubles as SolveStats — see src/mec/offloader.cpp). Two
// anomaly triggers fire a dump:
//
//   * deadline fallback engaged — the solve degraded (non-converged
//     eigensolve, KL recut, all-remote fallback, or an expired budget);
//   * latency outlier — total_seconds exceeded k x the sliding-window
//     p95 (k = 3 by default, armed only once the window has enough
//     samples to make p95 meaningful).
//
// A dump is the whole ring (oldest to newest) plus the trigger, written
// to `<dump_dir>/flight_<seq>_<kind>.json`, so a long-lived
// `mecoff_cli serve-solve` self-documents its worst moments without
// anyone tailing it. With no dump_dir set (the default) the
// recorder only keeps the in-memory ring — tests and libraries opt in.
//
// Recording OBSERVES the pipeline: nothing reads the recorder back
// into a solve, so placements are bit-identical with it armed or not.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/thread_annotations.hpp"
#include "obs/quantiles.hpp"

namespace mecoff::obs {

/// One completed solve, as the recorder remembers it. Stage timings are
/// the exact SolveStats doubles (no second clock).
struct SolveRecord {
  std::uint64_t seq = 0;     ///< assigned by the recorder, monotone
  double wall_time_us = 0.0; ///< since recorder epoch (steady clock)
  /// Serving-path correlation id (obs::current_request_id() at feed
  /// time); 0 = solve ran outside a request scope.
  std::uint64_t request_id = 0;
  std::size_t users = 0;
  std::size_t distinct_users = 0;
  std::size_t parts = 0;
  std::size_t greedy_moves = 0;
  double compress_seconds = 0.0;
  double cut_seconds = 0.0;
  double greedy_seconds = 0.0;
  double total_seconds = 0.0;
  double final_objective = 0.0;
  /// Degrade-don't-die fallback chain diagnostics (mec::SolveStats).
  std::size_t spectral_nonconverged = 0;
  std::size_t fallback_kl_cuts = 0;
  std::size_t fallback_all_remote = 0;
  bool deadline_expired = false;
  /// TraceCollector drop count at record time (0 when tracing is off).
  std::size_t trace_dropped = 0;

  /// Highest fallback level engaged: "none", "spectral_retry",
  /// "kl_recut", or "all_remote" — the post-mortem names it.
  [[nodiscard]] const char* fallback_level() const;
  [[nodiscard]] bool degraded() const {
    return spectral_nonconverged > 0 || fallback_kl_cuts > 0 ||
           fallback_all_remote > 0 || deadline_expired;
  }
};

enum class AnomalyKind : std::uint8_t {
  kNone,
  kDeadlineFallback,
  kLatencyOutlier,
};

[[nodiscard]] const char* to_string(AnomalyKind kind);

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 64;
  /// Latency-outlier trigger defaults: fire at 3 x windowed p95, but
  /// only once 32 samples have landed (early p95 is noise).
  static constexpr double kDefaultLatencyFactor = 3.0;
  static constexpr std::size_t kDefaultMinSamples = 32;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The process-wide recorder the solve pipeline feeds.
  static FlightRecorder& global();

  /// Directory for post-mortem dumps; empty (default) disables dumping
  /// while anomaly detection and counting stay armed.
  void set_dump_dir(std::string dir);
  /// Tune the latency-outlier trigger; factor <= 0 disarms it.
  void set_latency_trigger(double factor,
                           std::size_t min_samples = kDefaultMinSamples);

  /// Append one record (seq/wall-time stamped). Returns the anomaly
  /// trigger that fired, if any; when one fired and a dump_dir is set,
  /// the post-mortem has been written, or, if the write failed, the
  /// anomaly counts but no dump does.
  AnomalyKind record(SolveRecord record);

  [[nodiscard]] std::size_t size() const;          ///< records in ring
  [[nodiscard]] std::uint64_t total_records() const;
  [[nodiscard]] std::uint64_t anomaly_count() const;
  [[nodiscard]] std::uint64_t dump_count() const;
  [[nodiscard]] std::string last_dump_path() const;  ///< "" = none yet

  /// Ring contents, oldest to newest.
  [[nodiscard]] std::vector<SolveRecord> snapshot() const;

  /// The post-mortem JSON document: {"anomaly":{...},"records":[...]}.
  /// kNone renders the current ring with a null anomaly (the /flightz
  /// endpoint serves exactly this).
  [[nodiscard]] std::string to_json(
      AnomalyKind trigger = AnomalyKind::kNone) const;

  /// Explicit post-mortem: write the current ring (anomaly=null) to
  /// `<dump_dir>/flight_<seq>_<label>.json` and return the path. This
  /// is the graceful-drain hook — SIGTERM handlers call it exactly once
  /// so a clean shutdown self-documents like an anomaly does. Errors
  /// (no dump_dir configured, a file that does not open or a write that
  /// does not reach it) come back as a Result error, never a throw;
  /// only a written dump counts toward dump_count() and
  /// last_dump_path().
  Result<std::string> dump_now(const std::string& label);

 private:
  [[nodiscard]] std::string render_json_locked(AnomalyKind trigger) const
      REQUIRES(mutex_);
  [[nodiscard]] AnomalyKind classify_locked(const SolveRecord& record) const
      REQUIRES(mutex_);

  mutable Mutex mutex_;
  std::vector<SolveRecord> ring_ GUARDED_BY(mutex_);
  const std::size_t capacity_;
  /// next write position once full
  std::size_t head_ GUARDED_BY(mutex_) = 0;
  std::uint64_t next_seq_ GUARDED_BY(mutex_) = 0;
  std::uint64_t anomalies_ GUARDED_BY(mutex_) = 0;
  std::uint64_t dumps_ GUARDED_BY(mutex_) = 0;
  std::string dump_dir_ GUARDED_BY(mutex_);
  std::string last_dump_path_ GUARDED_BY(mutex_);
  double latency_factor_ GUARDED_BY(mutex_) = kDefaultLatencyFactor;
  std::size_t latency_min_samples_ GUARDED_BY(mutex_) = kDefaultMinSamples;
  /// Sliding window of total_seconds for the p95 threshold (private to
  /// the recorder; the registry's mec.solve.latency instrument is the
  /// serving-facing twin fed from the same double). Internally
  /// synchronized — always taken after mutex_, never the reverse, so
  /// the nesting order is acyclic.
  // lock-order: FlightRecorder::mutex_ -> Quantiles::mutex_
  Quantiles latency_window_{512};
  const std::chrono::steady_clock::time_point epoch_;
};

}  // namespace mecoff::obs
