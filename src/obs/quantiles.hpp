// Streaming latency quantiles over a sliding window.
//
// The instrument keeps the last `window_capacity` samples in a ring and
// answers quantile queries by sorting a snapshot of that window — exact
// order statistics over the window, not an approximation. We chose this
// over P²/CKMS sketches deliberately: the serving tests demand p50/p95/
// p99 within 1% of an exact-sort oracle on arbitrary latency
// distributions, a *value*-error bound no constant-memory sketch
// guarantees at the tail; a bounded window (default 2^14 doubles =
// 128 KiB) gives the sliding-window semantics operators expect from a
// /metrics scrape while keeping record() O(1) and queries exact.
//
// Concurrency: record() takes a short mutex (one store + three scalar
// updates under the lock). Solves are milliseconds-to-seconds apart, so
// the lock is uncontended in practice; unlike the counter/gauge hot
// path this instrument is fed once per *solve*, not once per node.
// Queries copy the window under the lock and sort outside it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/thread_annotations.hpp"

namespace mecoff::obs {

class Quantiles {
 public:
  /// Default sliding window: 2^14 samples (128 KiB of doubles).
  static constexpr std::size_t kDefaultWindow = 1u << 14;

  explicit Quantiles(std::size_t window_capacity = kDefaultWindow);

  /// (value, request id) pair for the current window maximum — the
  /// exemplar that lets /flightz and /timez name the request behind a
  /// p99 bump. request_id 0 means the sample carried no id.
  struct Exemplar {
    double value = 0.0;
    std::uint64_t request_id = 0;
  };

  /// Append one sample, evicting the oldest once the window is full.
  void record(double sample);

  /// Append one sample tagged with the request id that produced it.
  /// The id rides the same ring as the value and is evicted with it.
  void record(double sample, std::uint64_t request_id);

  /// Exemplar for the current window maximum. Ties resolve to the
  /// newest sample (the most recent request at the max is the one an
  /// operator wants to chase). Returns a zero Exemplar on an empty
  /// window.
  [[nodiscard]] Exemplar max_exemplar() const;

  /// Quantile q in [0, 1] over the current window, by linear
  /// interpolation between order statistics (the same definition as
  /// `numpy.quantile`'s default): position p = q * (n - 1), value
  /// x[floor(p)] + frac(p) * (x[floor(p)+1] - x[floor(p)]).
  /// Returns NaN on an empty window.
  [[nodiscard]] double quantile(double q) const;

  /// Batched query: one window snapshot + sort for all of `qs`.
  [[nodiscard]] std::vector<double> quantiles(
      std::span<const double> qs) const;

  /// Samples ever recorded (monotone; includes evicted ones).
  [[nodiscard]] std::uint64_t count() const;
  /// Sum of every sample ever recorded (for Prometheus summary _sum).
  [[nodiscard]] double sum() const;
  /// Samples currently in the window (<= window_capacity()).
  [[nodiscard]] std::size_t window_size() const;
  [[nodiscard]] std::size_t window_capacity() const { return capacity_; }

  /// Copy of the window, oldest to newest (tests, recorder thresholds).
  [[nodiscard]] std::vector<double> window() const;

  void reset();

 private:
  /// Window contents in ring order; caller sorts. Takes the lock.
  [[nodiscard]] std::vector<double> snapshot_window() const
      EXCLUDES(mutex_);

  const std::size_t capacity_;
  mutable Mutex mutex_;
  /// size() grows to capacity_, then wraps
  std::vector<double> ring_ GUARDED_BY(mutex_);
  /// request id per ring_ slot (0 = untagged); same indices, same wrap
  std::vector<std::uint64_t> ids_ GUARDED_BY(mutex_);
  /// next write position once full
  std::size_t head_ GUARDED_BY(mutex_) = 0;
  std::uint64_t total_count_ GUARDED_BY(mutex_) = 0;
  double total_sum_ GUARDED_BY(mutex_) = 0.0;
};

/// Shared quantile definition, exposed so tests and the flight recorder
/// can run the exact-sort oracle: `sorted` MUST be ascending.
[[nodiscard]] double quantile_of_sorted(std::span<const double> sorted,
                                        double q);

}  // namespace mecoff::obs
