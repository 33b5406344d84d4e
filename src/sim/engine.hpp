// Discrete-event simulation core: a clock and a time-ordered event
// queue. Events scheduled for the same instant fire in scheduling order
// (FIFO tie-break via a monotone sequence number), which keeps runs
// fully deterministic. The batch executor (sim/executor.hpp) and its
// channel and resource models run on it; fault scripts do not, because
// serve::FaultInjector replays them against the live service instead.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace mecoff::sim {

using SimTime = double;

class SimEngine {
 public:
  SimEngine() = default;

  /// Current simulation time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `fn` at absolute time `at` (>= now).
  void schedule_at(SimTime at, std::function<void()> fn);

  /// Schedule `fn` `delay` (>= 0) after now.
  void schedule_after(SimTime delay, std::function<void()> fn);

  /// Run until the queue drains; returns the final clock value.
  ///
  /// HAZARD: unbounded. A handler that perpetually reschedules itself
  /// (a polling loop, a flapping link) makes this spin forever; when
  /// handlers are not known to terminate, use run_until() instead.
  SimTime run();

  /// Run events with time <= `horizon` (>= now); later events stay
  /// queued. The clock ends at `horizon` even if the queue drained
  /// earlier, so follow-up schedule_after() calls are horizon-relative.
  SimTime run_until(SimTime horizon);

  /// Number of events executed by the last run()/run_until().
  [[nodiscard]] std::size_t events_executed() const { return executed_; }

  /// Events still queued (nonzero after a horizon stop).
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  SimTime run_core(SimTime horizon);

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

}  // namespace mecoff::sim
