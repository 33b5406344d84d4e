// Live fault injection for the solve service.
//
// This is the one module that decides what a `sim::FaultScript` event
// does when it fires. The script is armed against the RUNNING
// SolveService — no simulated clock exists there, so script times are
// read as REQUEST SEQUENCE NUMBERS: an event at time 12 fires when the
// 12th request (counting from 1) enters admission. That keeps injection
// deterministic and replayable regardless of wall-clock jitter: the
// same (script, request stream) pair always perturbs the same
// requests, which is what lets the soak harness commit a trajectory
// and lets tests assert exact outcomes.
//
// Fault taxonomy mapping (the script's server and user targets become
// worker shards and cache publishes; `to_text()` scripts round-trip):
//
//   crash <s>       kill worker shard s % shards. Cold solves routed
//                   to a killed shard fail fast at dispatch; the
//                   service retries the next alive shard, or degrades
//                   to all-local when every shard is down.
//   recover <s>     revive shard s % shards.
//   degrade <s> f   inject synthetic solve latency on shard s % shards:
//                   f × latency_scale_seconds per cold solve (f is the
//                   script's (0,1) severity). The service bounds the
//                   injected sleep by the request's remaining deadline
//                   budget, so a stall can slow a request but never
//                   hang it.
//   restore <s>     clear injected latency on shard s % shards.
//   disconnect <u>  arm ONE cache-publish failure: the next cold solve
//                   that would publish abandons instead (the "result
//                   got lost on the way back" failure riders must
//                   survive — one of them is promoted to owner).
//
// Thread-safe: begin_request() is called concurrently from every
// serving thread; queries are lock-protected reads. The applied-event
// trace is deterministic text ("req <seq>: <describe>") for replay
// assertions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"
#include "sim/fault_script.hpp"

namespace mecoff::serve {

class FaultInjector {
 public:
  struct Options {
    /// Shard count of the service this injector is attached to; crash
    /// and degrade targets are folded modulo this. At least 1.
    std::size_t shards = 4;
    /// Injected latency for a full-severity (→1.0) link degrade; the
    /// event's severity scales it down linearly.
    double latency_scale_seconds = 0.05;
  };

  struct Stats {
    std::uint64_t requests_seen = 0;    ///< begin_request() calls
    std::uint64_t events_applied = 0;   ///< script events fired so far
    std::uint64_t events_pending = 0;   ///< script events not yet due
    std::uint64_t publish_failures = 0; ///< publishes stolen so far
    std::size_t shards_killed = 0;      ///< currently-dead shard count
  };

  FaultInjector() : FaultInjector(Options{}) {}
  explicit FaultInjector(Options options);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Install `script` and reset the request sequence to 0. Events fire
  /// in replay order (`ordered()`); an event at time T fires when
  /// request ⌈T⌉ ≥ its time enters admission. Re-arming clears all
  /// standing faults (kills, latencies, pending publish failures).
  void arm(const sim::FaultScript& script) EXCLUDES(mutex_);

  /// Advance the request sequence by one and fire every event now due.
  /// Called by the service at admission, once per request (shed
  /// requests included — they count against the clock like any other).
  /// Returns the sequence number assigned to this request (1-based).
  std::uint64_t begin_request() EXCLUDES(mutex_);

  /// Is `shard` currently killed? (Folded modulo shards.)
  [[nodiscard]] bool shard_killed(std::size_t shard) const EXCLUDES(mutex_);

  /// Synthetic latency currently injected on `shard`, seconds; 0 when
  /// none. (Folded modulo shards.)
  [[nodiscard]] double injected_latency_seconds(std::size_t shard) const
      EXCLUDES(mutex_);

  /// One-shot: true exactly once per armed publish failure. A caller
  /// holding a publishable result that draws `true` must abandon()
  /// instead — the injected "lost result" fault.
  [[nodiscard]] bool steal_publish() EXCLUDES(mutex_);

  [[nodiscard]] Stats stats() const EXCLUDES(mutex_);

  /// Deterministic applied-event log: one "req <seq>: <describe>" line
  /// per fired event, in firing order.
  [[nodiscard]] std::vector<std::string> trace() const EXCLUDES(mutex_);

 private:
  void apply_locked(const sim::FaultEvent& event) REQUIRES(mutex_);

  const Options options_;
  mutable Mutex mutex_;
  std::vector<sim::FaultEvent> schedule_ GUARDED_BY(mutex_);
  std::size_t next_event_ GUARDED_BY(mutex_) = 0;
  std::uint64_t sequence_ GUARDED_BY(mutex_) = 0;
  /// Per-shard kill flag and injected latency, indexed by shard id.
  std::vector<std::uint8_t> killed_ GUARDED_BY(mutex_);
  std::vector<double> latency_ GUARDED_BY(mutex_);
  std::size_t killed_count_ GUARDED_BY(mutex_) = 0;
  /// Armed-but-unclaimed publish failures (disconnect events).
  std::uint64_t publish_steals_armed_ GUARDED_BY(mutex_) = 0;
  std::uint64_t publish_steals_taken_ GUARDED_BY(mutex_) = 0;
  std::uint64_t events_applied_ GUARDED_BY(mutex_) = 0;
  std::vector<std::string> trace_ GUARDED_BY(mutex_);
};

}  // namespace mecoff::serve
