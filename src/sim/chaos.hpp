// Chaos harness: replay a FaultScript against a multi-server
// deployment and record what the failover layer did about each fault.
//
// The run is fully deterministic — the DES orders events, the failover
// re-solves are deterministic, and every trace line renders doubles
// with round-trip precision — so the SAME (system, script) pair yields
// a BIT-IDENTICAL trace and final result on every run. That property
// is the whole point: a failure scenario found in production (or by a
// random script) replays exactly under a debugger.
#pragma once

#include <string>
#include <vector>

#include "common/result.hpp"
#include "mec/multiserver.hpp"
#include "sim/engine.hpp"
#include "sim/fault_script.hpp"

namespace mecoff::sim {

struct ChaosOptions {
  mec::FailoverOptions failover;
  /// Backstop on DES events (a script cannot loop, but the budget keeps
  /// the harness safe against future periodic fault sources).
  std::size_t max_events = 100000;
};

struct ChaosOutcome {
  /// One line per fault applied/rejected, in replay order — the
  /// deterministic recovery trace.
  std::vector<std::string> trace;
  mec::MultiServerResult final_result;
  bool all_local_fallback = false;
  std::size_t faults_applied = 0;
  /// Faults the controller refused (crash of an already-dead server,
  /// disconnect of a gone user, ...) — still logged, still replayable.
  std::size_t faults_rejected = 0;
  /// Flight-recorder anomalies attributed to this run (the recorder's
  /// anomaly-count delta across run_chaos). The count is telemetry, not
  /// part of the deterministic trace/result contract.
  std::uint64_t anomalies_recorded = 0;
  SimTime end_time = 0.0;
};

/// Solve the initial placement, arm the script, run the DES, return
/// the trace + final state. Errors on an invalid system.
[[nodiscard]] Result<ChaosOutcome> run_chaos(
    const mec::MultiServerSystem& system, const FaultScript& script,
    const ChaosOptions& options = {});

}  // namespace mecoff::sim
