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
  /// There is no horizon: termination rests on the handlers. The
  /// shipped ones (FifoResource, GilbertElliottLink, driven by the
  /// batch executor) schedule a follow-up only while a submitted job
  /// is still queued, and an idle link schedules nothing, so a batch
  /// of finitely many jobs drains. A handler that rescheduled itself
  /// unconditionally would make this spin forever.
  SimTime run();

  /// Number of events executed by the last run().
  [[nodiscard]] std::size_t events_executed() const { return executed_; }

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

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

}  // namespace mecoff::sim
