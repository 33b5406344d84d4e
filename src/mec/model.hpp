// The multi-user MEC system model of Section II: users u_i, each with a
// function data flow graph G_i, all served by one edge server S.
//
// Parameter names follow the paper:
//   p_c  unit power of local computation        (mobile_power)
//   p_t  unit power of wireless transmission    (transmit_power, ≫ p_c)
//   b    wireless bandwidth user ↔ server       (bandwidth)
//   I_c  computing capacity of each device      (mobile_capacity)
//   I_S  total computing capacity of the server (server_capacity)
//
// The paper assumes homogeneous users (∀u_i: b_i = b, p_c^i = p_c,
// p_t^i = p_t); we keep the same simplification in SystemParams and let
// per-user heterogeneity live in the graphs themselves.
//
// Server sharing & waiting time: the server splits its capacity equally
// among the K users that offload anything (I_s^i = I_S / K), and each
// unit of a user's remote work additionally queues behind the total
// offered load S = Σ_j W_s^j:
//     w_t^i = κ · S · W_s^i / I_S²              (contention_factor κ)
// — a convex congestion delay in the offered load, the analytic stand-in
// for the queueing the paper's w_t describes ("time consumed ... when
// waiting for the resource allocated by S"). Convexity is load-bearing:
// it gives offloading an interior optimum (offload up to a
// capacity-determined amount, keep the rest local), which is what makes
// the local share grow as graphs or user counts grow in the evaluation
// figures. The discrete-event simulator in src/sim generates waiting
// mechanistically (a FIFO edge server); tests cross-check the two models'
// qualitative behavior and their exact agreement where both are zero.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/weighted_graph.hpp"

namespace mecoff::mec {

struct SystemParams {
  double mobile_power = 1.0;       ///< p_c
  double transmit_power = 8.0;     ///< p_t
  double bandwidth = 20.0;         ///< b
  double mobile_capacity = 10.0;   ///< I_c
  double server_capacity = 500.0;  ///< I_S
  double contention_factor = 1.0;  ///< κ in the waiting-time model

  /// Sanity checks (all strictly positive, κ ≥ 0).
  [[nodiscard]] bool valid() const;
};

/// One user's application as extracted by the appmodel layer.
struct UserApp {
  graph::WeightedGraph graph;
  /// Per node; pinned nodes never offload. Empty = all offloadable.
  std::vector<bool> unoffloadable;
  /// Optional declared software components (empty = connectivity only).
  std::vector<std::uint32_t> components;
};

struct MecSystem {
  SystemParams params;
  std::vector<UserApp> users;

  [[nodiscard]] std::size_t num_users() const { return users.size(); }

  /// Validate shapes: masks/components sized to their graphs, params ok.
  [[nodiscard]] bool valid() const;
};

/// Build a homogeneous multi-user system: `copies[i]` users share graph
/// pool[i % pool.size()] (cheap way to model large user populations).
[[nodiscard]] MecSystem make_uniform_system(
    SystemParams params, const std::vector<UserApp>& pool,
    std::size_t num_users);

}  // namespace mecoff::mec
