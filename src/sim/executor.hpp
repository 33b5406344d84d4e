// Execute an offloading scheme on the simulated MEC testbed and measure
// what actually happens — the mechanistic counterpart of the analytic
// cost model in mec/costs.hpp.
//
// Timeline per user:
//   t=0  device starts the local batch (W_c work at rate I_c);
//   t=0  the user's radio starts shipping the cross-cut data (X bytes
//        at bandwidth b, consuming p_t per unit time);
//   when the upload completes the remote job (W_s work) joins the
//   shared edge server's FIFO queue;
//   the user is finished when both the local batch and the remote job
//   are done.
//
// Energies are load-independent and must match evaluate() exactly;
// times include real queueing, so multi-user contention emerges from
// the server's backlog instead of the κ-model. Tests pin down both
// relationships.
#pragma once

#include <optional>

#include "mec/costs.hpp"
#include "mec/model.hpp"
#include "mec/scheme.hpp"
#include "sim/channel.hpp"

namespace mecoff::sim {

struct SimOptions {
  /// When set, every user's radio follows this Gilbert–Elliott fading
  /// process (per-user independent streams, seeds derived from
  /// channel->seed + user index) instead of the constant bandwidth b.
  /// Transfer times and energies then reflect the realized rates.
  std::optional<ChannelModel> channel;
};

struct UserOutcome {
  double local_time = 0.0;      ///< device busy time (W_c / I_c)
  double upload_time = 0.0;     ///< radio busy time (X / b)
  double server_wait = 0.0;     ///< time queued before service
  double server_time = 0.0;     ///< service (sojourn − wait)
  double completion = 0.0;      ///< makespan of this user
  double local_energy = 0.0;    ///< p_c · local_time
  double transmit_energy = 0.0; ///< p_t · upload_time
};

struct SimReport {
  std::vector<UserOutcome> users;
  double makespan = 0.0;       ///< latest completion across users
  double total_energy = 0.0;   ///< Σ (local + transmit) energies
  double total_time = 0.0;     ///< Σ per-user (local + upload + sojourn)
  std::size_t events = 0;      ///< DES events executed
};

/// Run the discrete-event simulation of `scheme` on `system`.
[[nodiscard]] SimReport simulate_scheme(const mec::MecSystem& system,
                                        const mec::OffloadingScheme& scheme,
                                        const SimOptions& options = {});

}  // namespace mecoff::sim
