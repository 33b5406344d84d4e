#include "sim/chaos.hpp"

#include <sstream>

#include "common/strings.hpp"
#include "obs/flight_recorder.hpp"

namespace mecoff::sim {

namespace {

// 17 significant digits round-trip exactly; format_general keeps the
// chaos trace locale-independent so (system, script) replays diff
// byte-for-byte on any machine.
std::string format_double(double value) { return format_general(value, 17); }

std::string format_step(const mec::FailoverStep& step) {
  std::ostringstream out;
  if (!step.moved_users.empty()) {
    out << " moved=[";
    for (std::size_t i = 0; i < step.moved_users.size(); ++i)
      out << (i == 0 ? "" : ",") << step.moved_users[i];
    out << ']';
  }
  if (!step.resolved_groups.empty()) {
    out << " resolved=[";
    for (std::size_t i = 0; i < step.resolved_groups.size(); ++i)
      out << (i == 0 ? "" : ",") << step.resolved_groups[i];
    out << ']';
  }
  if (!step.adopted) out << " suppressed";
  if (step.all_local_fallback) out << " all-local";
  out << " objective=" << format_double(step.objective_after);
  return out.str();
}

}  // namespace

Result<ChaosOutcome> run_chaos(const mec::MultiServerSystem& system,
                               const FaultScript& script,
                               const ChaosOptions& options) {
  if (!system.valid()) return Error("invalid multi-server system");

  ChaosOutcome outcome;
  // Anomalies are attributed by delta so the recorder can be shared
  // with other runs in the process.
  const std::uint64_t anomalies_before =
      obs::FlightRecorder::global().anomaly_count();
  mec::FailoverController controller(system, options.failover);
  outcome.trace.push_back(
      "at 0 init objective=" + format_double(controller.objective()));

  SimEngine engine;
  script.arm(engine, [&](const FaultEvent& event) {
    const auto dispatch = [&]() -> Result<mec::FailoverStep> {
      switch (event.kind) {
        case FaultKind::kServerCrash:
          return controller.on_server_failed(event.target);
        case FaultKind::kServerRecover:
          return controller.on_server_recovered(event.target);
        case FaultKind::kLinkDegrade:
          return controller.on_link_degraded(event.target, event.severity);
        case FaultKind::kLinkRestore:
          return controller.on_link_restored(event.target);
        case FaultKind::kUserDisconnect:
          return controller.on_user_disconnected(event.target);
      }
      return Error("unknown fault kind");
    };
    const Result<mec::FailoverStep> step = dispatch();
    if (step.ok()) {
      ++outcome.faults_applied;
      outcome.trace.push_back(event.describe() + format_step(step.value()));
    } else {
      // Rejected faults (and the degraded-to-all-local terminal error)
      // are part of the replayable record too.
      ++outcome.faults_rejected;
      outcome.trace.push_back(event.describe() +
                              " rejected: " + step.error().message);
    }
  });

  outcome.end_time = engine.run(options.max_events);
  outcome.final_result = controller.current();
  outcome.all_local_fallback = controller.all_local_fallback();
  outcome.anomalies_recorded =
      obs::FlightRecorder::global().anomaly_count() - anomalies_before;
  outcome.trace.push_back(
      "at " + format_double(outcome.end_time) +
      " final objective=" + format_double(controller.objective()) +
      (controller.all_local_fallback() ? " all-local" : ""));
  return outcome;
}

}  // namespace mecoff::sim
