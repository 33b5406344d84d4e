// Time-series telemetry: a bounded ring of periodic MetricsSnapshot
// deltas, turning the registry's point-in-time view into a curve.
//
// Each retained Sample carries, per counter, the cumulative value, the
// delta since the *previous* sample, and a rate — so /timez renders a
// trajectory, not one instant. Deltas are computed at sample time
// against the previous sample (whether or not that sample is still in
// the ring), so wraparound never corrupts them.
//
// Two drive modes, mirroring serve::FaultInjector's clock trick:
//  * kTick — sampled on request-sequence numbers (note_request() every
//    N requests, or explicit sample_now(tick) at harness barriers).
//    Tick-mode documents contain no wall-clock fields, so a replayed
//    run produces a byte-identical /timez body — the determinism
//    contract the soak harness and golden tests rely on.
//  * kWall — sampled when poll_wall() observes that the configured
//    interval has elapsed. For live serving: the CLI's idle loop polls
//    it; no extra thread, no timer signal.
// kManual takes samples only via sample_now() — the harness mode.
//
// A key filter restricts which instruments a sample retains. The soak
// harness filters to the counters that are deterministic at its load
// barriers; a live server retains everything. It reads an explicit
// registry, never through the macro facade.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stopwatch.hpp"
#include "common/thread_annotations.hpp"
#include "obs/metrics.hpp"

namespace mecoff::obs {

class Timeline {
 public:
  enum class Mode { kManual, kTick, kWall };

  struct Options {
    /// Samples retained; older samples fall off the ring (counted in
    /// `dropped`, visible in the document).
    std::size_t capacity = 256;
    Mode mode = Mode::kManual;
    /// kTick: take a sample every `tick_period` note_request() calls.
    std::uint64_t tick_period = 64;
    /// kWall: minimum seconds between samples taken by poll_wall().
    double interval_seconds = 1.0;
    /// Instrument names to retain; empty = every instrument. Applies
    /// to counters, gauges, and quantiles alike.
    std::vector<std::string> keys;
    /// Registry to sample; nullptr = MetricsRegistry::global().
    const MetricsRegistry* registry = nullptr;
  };

  /// Per-counter view inside one sample.
  struct CounterPoint {
    std::uint64_t value = 0;  ///< cumulative at sample time
    std::int64_t delta = 0;   ///< vs the previous sample (can be < 0
                              ///< across a Counter::reset())
    double rate = 0.0;        ///< delta per tick (kManual/kTick) or
                              ///< per second (kWall)
  };

  struct Sample {
    std::uint64_t tick = 0;      ///< request-sequence position
    double wall_seconds = 0.0;   ///< since Timeline construction
    std::map<std::string, CounterPoint> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, MetricsSnapshot::QuantilesValue> quantiles;
  };

  Timeline() : Timeline(Options{}) {}
  explicit Timeline(Options options);

  /// Take one sample at the given tick position, unconditionally.
  void sample_now(std::uint64_t tick) EXCLUDES(mutex_);

  /// kTick driver: count one request; sample when the internal request
  /// counter crosses a tick_period boundary. No-op in other modes
  /// (the counter still advances so a later poll_wall/sample has a
  /// meaningful tick).
  void note_request() EXCLUDES(mutex_);

  /// kWall driver: sample if interval_seconds have elapsed since the
  /// last sample. Call from any idle loop; cheap when not due.
  void poll_wall() EXCLUDES(mutex_);

  [[nodiscard]] std::size_t size() const EXCLUDES(mutex_);
  [[nodiscard]] std::uint64_t samples_taken() const EXCLUDES(mutex_);
  [[nodiscard]] std::uint64_t dropped() const EXCLUDES(mutex_);

  /// Retained samples, oldest to newest.
  [[nodiscard]] std::vector<Sample> samples() const EXCLUDES(mutex_);

  /// The `mecoff.timeline.v1` document: schema/mode/capacity header +
  /// the retained samples, numbers via format_double. Tick-mode (and
  /// manual-mode) documents omit every wall-clock field so replays
  /// diff byte-for-byte.
  [[nodiscard]] std::string to_json() const EXCLUDES(mutex_);

 private:
  void sample_locked(std::uint64_t tick) REQUIRES(mutex_);

  const Options options_;
  const Stopwatch since_construction_;
  /// sample_locked() snapshots the metrics registry while holding the
  /// timeline lock, so the registry lock (and, through it, each
  /// Quantiles instrument's lock) nests under mutex_. The registry
  /// never calls back into the timeline.
  // lock-order: Timeline::mutex_ -> MetricsRegistry::mutex_
  mutable Mutex mutex_;
  /// grows to capacity_, then wraps at head_ (same shape as Quantiles)
  std::vector<Sample> ring_ GUARDED_BY(mutex_);
  std::size_t head_ GUARDED_BY(mutex_) = 0;
  std::uint64_t samples_taken_ GUARDED_BY(mutex_) = 0;
  std::uint64_t requests_seen_ GUARDED_BY(mutex_) = 0;
  /// previous sample's cumulative counters + tick/wall, for deltas
  std::map<std::string, std::uint64_t> prev_counters_ GUARDED_BY(mutex_);
  std::uint64_t prev_tick_ GUARDED_BY(mutex_) = 0;
  double prev_wall_ GUARDED_BY(mutex_) = 0.0;
  double last_sample_wall_ GUARDED_BY(mutex_) = 0.0;
  bool have_sample_ GUARDED_BY(mutex_) = false;
};

}  // namespace mecoff::obs
