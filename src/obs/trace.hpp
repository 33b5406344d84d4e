// Scoped trace spans with a chrome://tracing JSON exporter.
//
// Collection model: the process-wide TraceCollector owns one event log
// per thread (created on that thread's first span, found again through
// a thread_local pointer). A span's constructor reads one atomic flag —
// when tracing is disabled the span is inert and costs a load and a
// branch. When enabled, begin/end timestamps, the calling thread's
// dense id, and the per-thread nesting depth are pushed into the
// thread's log under that log's own mutex (uncontended in steady state:
// only the owning thread writes; the exporter locks it only during
// write_chrome_trace/clear).
//
// Tracing OBSERVES the pipeline and never feeds back into it: no RNG,
// no solver state, only clock reads. Schemes are bit-identical with
// tracing enabled or disabled (tests/obs_test.cpp holds this as an
// invariant).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <vector>

#include "common/thread_annotations.hpp"

namespace mecoff::obs {

/// Sentinel: span has no numeric argument.
inline constexpr std::uint64_t kNoArg = ~std::uint64_t{0};

/// One completed span (Chrome "X" complete event).
struct TraceEvent {
  const char* name = nullptr;  ///< static string (span names are literals)
  double start_us = 0.0;       ///< microseconds since collector epoch
  double duration_us = 0.0;
  std::uint32_t tid = 0;    ///< dense per-collector thread id
  std::uint32_t depth = 0;  ///< nesting depth on that thread
  std::uint64_t arg = kNoArg;
};

class TraceCollector {
 public:
  TraceCollector();
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// The process-wide collector every TraceSpan records into.
  static TraceCollector& global();

  /// Tracing starts disabled; spans created while disabled record
  /// nothing (they do not retro-appear on enable).
  void enable(bool on = true) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Total events the collector will hold before dropping (a runaway
  /// sim trace must not eat the heap). Dropped events are counted.
  void set_capacity(std::size_t max_events);

  [[nodiscard]] std::size_t event_count() const;
  [[nodiscard]] std::size_t dropped_count() const;

  /// Drop all recorded events (thread registrations survive).
  void clear();

  /// Chrome trace-event JSON ("traceEvents" array of "X" events,
  /// microsecond timestamps) — load via chrome://tracing or Perfetto.
  void write_chrome_trace(std::ostream& out) const;

  /// Microseconds since the collector's epoch, on the steady clock.
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

 private:
  friend class TraceSpan;

  struct ThreadLog {
    Mutex mutex;
    std::vector<TraceEvent> events GUARDED_BY(mutex);
    std::uint32_t tid = 0;
    /// Live nesting; touched only by the owning thread (TraceSpan
    /// ctor/dtor), never under the lock — deliberately unguarded.
    std::uint32_t depth = 0;
  };

  /// This thread's log, created and registered on first use.
  ThreadLog& local_log() EXCLUDES(registry_mutex_);

  void record(const TraceEvent& event);

  std::atomic<bool> enabled_{false};
  std::atomic<std::size_t> total_events_{0};
  std::atomic<std::size_t> dropped_{0};
  std::atomic<std::size_t> capacity_{1u << 20};
  std::chrono::steady_clock::time_point epoch_;

  /// Lock order: registry_mutex_ first, then a ThreadLog::mutex —
  /// clear() and write_chrome_trace() nest that way; nothing nests the
  /// other way around. (The structured line below is machine-read by
  /// tools/analyze_locks.py; keep it in sync with the prose.)
  // lock-order: TraceCollector::registry_mutex_ -> TraceCollector::ThreadLog::mutex
  mutable Mutex registry_mutex_;
  std::deque<std::unique_ptr<ThreadLog>> logs_ GUARDED_BY(registry_mutex_);
};

/// RAII span: records [construction, destruction) into the global
/// collector when tracing is enabled at construction time.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, std::uint64_t arg = kNoArg);
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan();

 private:
  const char* name_;
  std::uint64_t arg_;
  double start_us_ = 0.0;
  TraceCollector::ThreadLog* log_ = nullptr;  ///< null = inert span
};

}  // namespace mecoff::obs
