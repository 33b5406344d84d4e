// Time-varying radio link: a Gilbert–Elliott two-state Markov channel.
//
// Real wireless links fade; a constant-bandwidth model (the paper's b)
// understates transfer-time variance, which matters exactly where the
// offloading boundary sits on the critical path. The link alternates
// between a GOOD state (full rate) and a BAD state (degraded rate) with
// exponentially distributed dwell times, the standard Gilbert–Elliott
// burst-error model. Jobs are served FIFO; the head job progresses at
// the current state's rate.
//
// Deterministic: state flips come from a seeded Rng, so simulations are
// exactly replayable.
#pragma once

#include <cstdint>
#include <functional>
#include <list>

#include "common/rng.hpp"
#include "sim/engine.hpp"
#include "sim/resources.hpp"

namespace mecoff::sim {

struct ChannelModel {
  double good_rate = 20.0;   ///< units per second in the good state
  double bad_rate = 4.0;     ///< units per second in the bad state
  double mean_good = 5.0;    ///< mean dwell in the good state (s)
  double mean_bad = 1.0;     ///< mean dwell in the bad state (s)
  std::uint64_t seed = 0xcafe;

  [[nodiscard]] bool valid() const {
    return good_rate > 0.0 && bad_rate > 0.0 && bad_rate <= good_rate &&
           mean_good > 0.0 && mean_bad > 0.0;
  }

  /// Long-run average rate: time-weighted mix of the two states.
  [[nodiscard]] double mean_rate() const {
    return (good_rate * mean_good + bad_rate * mean_bad) /
           (mean_good + mean_bad);
  }
};

/// FIFO link whose service rate follows the Gilbert–Elliott process.
class GilbertElliottLink {
 public:
  GilbertElliottLink(SimEngine& engine, ChannelModel model);

  /// Transfer `size` units; on_complete(stats) fires at completion.
  void submit(double size, std::function<void(const JobStats&)> on_complete);

  [[nodiscard]] std::size_t jobs_completed() const { return completed_; }

 private:
  struct Pending {
    double remaining;
    JobStats stats;
    std::function<void(const JobStats&)> on_complete;
  };

  [[nodiscard]] double rate() const {
    return good_ ? model_.good_rate : model_.bad_rate;
  }

  /// Advance the head job to `now`, then (re)schedule the next event —
  /// either the head job's completion or the next state flip, whichever
  /// comes first.
  void reschedule();

  SimEngine& engine_;
  ChannelModel model_;
  Rng rng_;
  bool good_ = true;
  SimTime next_flip_;
  SimTime last_update_ = 0.0;
  std::list<Pending> queue_;
  std::uint64_t epoch_ = 0;  ///< invalidates superseded events
  std::size_t completed_ = 0;
};

}  // namespace mecoff::sim
