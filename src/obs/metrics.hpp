// Lock-cheap metrics: named counters, gauges, and sliding-window
// latency quantiles shared by the whole solve pipeline.
//
// The registry is the slow path: name lookup takes a mutex and returns
// a reference to a heap-stable instrument. Call sites cache that
// reference (a function-local static at instrumentation points), so the
// hot path is a single relaxed atomic RMW — safe from ThreadPool
// workers, no locks, no allocation. Instruments are never destroyed
// before the registry, so cached references cannot dangle.
//
// Pipeline code records through the MECOFF_* macros in obs.hpp; the CLI
// and tests also use the registry directly.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "common/thread_annotations.hpp"
#include "obs/quantiles.hpp"

namespace mecoff::obs {

/// Monotone event count. add() is a relaxed atomic fetch-add.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins scalar (e.g. the most recent solve's stage seconds).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta);
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Point-in-time copy of every instrument, for reporting and tests.
struct MetricsSnapshot {
  /// Summary view of a Quantiles instrument: the standard serving
  /// percentiles, evaluated over the sliding window at snapshot time.
  struct QuantilesValue {
    std::uint64_t count = 0;  ///< samples ever recorded
    double sum = 0.0;         ///< over every sample ever recorded
    std::size_t window_size = 0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    /// Window-maximum exemplar: the worst sample still in the window
    /// and the request id that produced it (0 = untagged).
    double max_value = 0.0;
    std::uint64_t max_request_id = 0;
  };
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, QuantilesValue> quantiles;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every instrumentation macro targets.
  static MetricsRegistry& global();

  /// Find-or-create by name. References stay valid for the registry's
  /// lifetime. A name identifies at most one instrument kind; asking
  /// for the same name as a different kind throws.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// Sliding-window quantile estimator (see obs/quantiles.hpp) with
  /// the default window.
  Quantiles& quantiles(std::string_view name);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Human-readable dump, one `name ...` line per instrument, sorted by
  /// name across ALL instrument kinds. Byte-stable: deterministic
  /// ordering and locale-independent round-trip number formatting
  /// (std::to_chars), so golden tests and the bench gate can diff the
  /// dump byte-for-byte across runs and machines.
  [[nodiscard]] std::string to_text() const;
  /// JSON object {"counters":{...},"gauges":{...},"quantiles":{...}},
  /// keys sorted, numbers via std::to_chars.
  [[nodiscard]] std::string to_json() const;

 private:
  enum class Kind { kCounter, kGauge, kQuantiles };
  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Quantiles> quantiles;
  };

  /// Takes the lock itself; the returned Entry's instrument pointers
  /// are heap-stable, so callers may hold them without the lock.
  Entry& find_or_create(std::string_view name, Kind kind) EXCLUDES(mutex_);

  /// snapshot()/to_text()/to_json() read Quantiles instruments while
  /// holding the registry lock, so each Quantiles' internal lock nests
  /// under mutex_; Quantiles never calls back into the registry.
  // lock-order: MetricsRegistry::mutex_ -> Quantiles::mutex_
  mutable Mutex mutex_;
  std::map<std::string, Entry, std::less<>> entries_ GUARDED_BY(mutex_);
};

}  // namespace mecoff::obs
