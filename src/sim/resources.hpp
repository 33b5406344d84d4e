// Simulated resources.
//
// FifoResource — a rate-`capacity` server processing one job at a time
// in arrival order: the edge server S. A job of size W admitted at time
// a behind queued work Q completes at a + Q/capacity + W/capacity; the
// Q/capacity term is the mechanistic version of the paper's waiting
// time w_t.
#pragma once

#include <functional>
#include <list>

#include "sim/engine.hpp"

namespace mecoff::sim {

struct JobStats {
  SimTime admitted = 0.0;
  SimTime started = 0.0;    ///< head-of-queue time
  SimTime completed = 0.0;

  [[nodiscard]] SimTime wait() const { return started - admitted; }
  [[nodiscard]] SimTime sojourn() const { return completed - admitted; }
};

class FifoResource {
 public:
  FifoResource(SimEngine& engine, double capacity);

  /// Admit a job of `size` work units; `on_complete(stats)` fires when
  /// it finishes.
  void submit(double size, std::function<void(const JobStats&)> on_complete);

  [[nodiscard]] double capacity() const { return capacity_; }
  [[nodiscard]] std::size_t jobs_completed() const { return completed_; }

 private:
  struct Pending {
    double size;
    JobStats stats;
    std::function<void(const JobStats&)> on_complete;
  };

  void start_next();

  SimEngine& engine_;
  double capacity_;
  std::list<Pending> queue_;
  bool busy_ = false;
  std::size_t completed_ = 0;
};

}  // namespace mecoff::sim
