// Scripted fault injection: the text format of a fault scenario.
//
// A FaultScript is a time-ordered list of infrastructure faults —
// server crash/recover, link degrade/restore, user disconnect. Scripts
// are plain data: they are built programmatically or parsed from text,
// and to_text()/parse() round-trip them exactly, so a failure run is
// replayable from its script alone. What an event does when it fires is
// decided in one place, serve::FaultInjector, which replays the script
// against the live SolveService with times read as request sequence
// numbers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "sim/engine.hpp"

namespace mecoff::sim {

/// Fault taxonomy. Server faults take a server id as target; link
/// faults target the radio of one server; disconnects target a user.
enum class FaultKind : std::uint8_t {
  kServerCrash,
  kServerRecover,
  kLinkDegrade,
  kLinkRestore,
  kUserDisconnect,
};

[[nodiscard]] const char* to_string(FaultKind kind);

struct FaultEvent {
  SimTime time = 0.0;
  FaultKind kind = FaultKind::kServerCrash;
  std::size_t target = 0;  ///< server id, or user id for disconnects
  /// Link degrade only: surviving fraction of the nominal rate, (0, 1).
  double severity = 0.5;

  /// Deterministic one-line rendering ("at <t> degrade 2 0.25") — the
  /// unit replay logs are built from.
  [[nodiscard]] std::string describe() const;
};

class FaultScript {
 public:
  FaultScript() = default;

  /// Append one event. Throws PreconditionError for non-finite or
  /// negative times, or a degrade severity outside (0, 1).
  FaultScript& add(FaultEvent event);

  FaultScript& crash_server(SimTime t, std::size_t server);
  FaultScript& recover_server(SimTime t, std::size_t server);
  FaultScript& degrade_link(SimTime t, std::size_t server, double severity);
  FaultScript& restore_link(SimTime t, std::size_t server);
  FaultScript& disconnect_user(SimTime t, std::size_t user);

  /// Events in insertion order (possibly out of time order).
  [[nodiscard]] const std::vector<FaultEvent>& events() const {
    return events_;
  }
  /// Events in replay order: stable-sorted by time, so out-of-order
  /// adds are normalized and same-instant events keep insertion order.
  [[nodiscard]] std::vector<FaultEvent> ordered() const;

  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] bool empty() const { return events_.empty(); }

  /// One describe() line per event, in replay order; parse() inverts.
  [[nodiscard]] std::string to_text() const;

  /// Parse the describe()/to_text() format; '#' comments and blank
  /// lines are skipped. Garbage, negative times, unknown fault names
  /// and bad severities yield an error Result, never a throw.
  [[nodiscard]] static Result<FaultScript> parse(const std::string& text);

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace mecoff::sim
