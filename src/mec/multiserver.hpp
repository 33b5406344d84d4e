// Multi-server extension — beyond the paper's single edge server.
//
// The paper fixes one server S; real MEC deployments run several edge
// boxes with different capacities and link qualities, and the first
// decision is WHICH server a user attaches to. This module composes the
// existing machinery: assign each user a home server (capacity-weighted
// balancing over the users' total computation), then run the standard
// pipeline + Algorithm 2 greedy independently per server group — valid
// because users never share state across servers, so the per-server
// subsystems decouple exactly.
//
// An optional rebalancing loop re-attaches users whose move to another
// server lowers the combined objective (evaluated by re-solving the two
// affected groups), until no single-user move helps or the round budget
// is spent.
//
// The attachment is static: this module handles no runtime fault. The
// one fault path is the served one, where serve::FaultInjector replays
// a sim::FaultScript against SolveService (docs/model.md, Fault model).
#pragma once

#include <vector>

#include "mec/costs.hpp"
#include "mec/offloader.hpp"

namespace mecoff::mec {

/// One edge server and the radio it is reached over.
struct ServerSpec {
  double capacity = 500.0;       ///< I_S of this box
  double bandwidth = 20.0;       ///< b of the user↔server link
  double transmit_power = 8.0;   ///< p_t on that link
};

struct MultiServerSystem {
  /// Device-side parameters (mobile_power, mobile_capacity,
  /// contention_factor); the server/link fields are ignored in favor of
  /// the per-server specs.
  SystemParams device;
  std::vector<ServerSpec> servers;
  std::vector<UserApp> users;

  [[nodiscard]] bool valid() const;
};

struct MultiServerResult {
  /// Home server per user.
  std::vector<std::size_t> server_of_user;
  /// Placement per user (kRemote = user's home server).
  OffloadingScheme scheme;
  /// Σ over per-server subsystems.
  double total_energy = 0.0;
  double total_time = 0.0;
  /// Remote weight landed on each server.
  std::vector<double> server_load;
  std::size_t rebalance_moves = 0;

  [[nodiscard]] double objective() const {
    return total_energy + total_time;
  }
};

struct MultiServerOptions {
  PipelineOptions pipeline;
  /// Maximum user re-attachment rounds (0 disables rebalancing).
  std::size_t rebalance_rounds = 2;
};

class MultiServerOffloader {
 public:
  explicit MultiServerOffloader(MultiServerOptions options = {});

  [[nodiscard]] MultiServerResult solve(const MultiServerSystem& system);

 private:
  MultiServerOptions options_;
};

}  // namespace mecoff::mec
