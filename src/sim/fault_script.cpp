#include "sim/fault_script.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/contracts.hpp"
#include "common/strings.hpp"

namespace mecoff::sim {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kServerCrash: return "crash";
    case FaultKind::kServerRecover: return "recover";
    case FaultKind::kLinkDegrade: return "degrade";
    case FaultKind::kLinkRestore: return "restore";
    case FaultKind::kUserDisconnect: return "disconnect";
  }
  return "unknown";
}

std::string FaultEvent::describe() const {
  // 17 significant digits round-trip doubles exactly, so describe()
  // output is a faithful replay key, not just a display string.
  // format_general pins the bytes to the "C" locale ("%.17g" would
  // follow LC_NUMERIC and break script round-trips under a
  // comma-decimal locale).
  std::string out = "at " + format_general(time, 17) + ' ' +
                    std::string(to_string(kind)) + ' ' +
                    std::to_string(target);
  if (kind == FaultKind::kLinkDegrade)
    out += ' ' + format_general(severity, 17);
  return out;
}

FaultScript& FaultScript::add(FaultEvent event) {
  MECOFF_EXPECTS(std::isfinite(event.time) && event.time >= 0.0);
  if (event.kind == FaultKind::kLinkDegrade)
    MECOFF_EXPECTS(event.severity > 0.0 && event.severity < 1.0);
  events_.push_back(event);
  return *this;
}

FaultScript& FaultScript::crash_server(SimTime t, std::size_t server) {
  return add(FaultEvent{t, FaultKind::kServerCrash, server, 0.0});
}

FaultScript& FaultScript::recover_server(SimTime t, std::size_t server) {
  return add(FaultEvent{t, FaultKind::kServerRecover, server, 0.0});
}

FaultScript& FaultScript::degrade_link(SimTime t, std::size_t server,
                                       double severity) {
  return add(FaultEvent{t, FaultKind::kLinkDegrade, server, severity});
}

FaultScript& FaultScript::restore_link(SimTime t, std::size_t server) {
  return add(FaultEvent{t, FaultKind::kLinkRestore, server, 0.0});
}

FaultScript& FaultScript::disconnect_user(SimTime t, std::size_t user) {
  return add(FaultEvent{t, FaultKind::kUserDisconnect, user, 0.0});
}

std::vector<FaultEvent> FaultScript::ordered() const {
  std::vector<FaultEvent> sorted = events_;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.time < b.time;
                   });
  return sorted;
}

std::string FaultScript::to_text() const {
  std::ostringstream out;
  for (const FaultEvent& event : ordered()) out << event.describe() << '\n';
  return out.str();
}

Result<FaultScript> FaultScript::parse(const std::string& text) {
  FaultScript script;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string trimmed{trim(line)};
    if (trimmed.empty() || trimmed.front() == '#') continue;
    const auto fail = [&](const std::string& why) {
      return Error("fault script line " + std::to_string(line_no) + ": " +
                   why);
    };

    std::istringstream fields(trimmed);
    std::string at_word, kind_word;
    double time = 0.0;
    std::size_t target = 0;
    if (!(fields >> at_word >> time >> kind_word >> target) ||
        at_word != "at")
      return fail("expected 'at <time> <fault> <target>'");
    if (!std::isfinite(time) || time < 0.0)
      return fail("fault time must be finite and non-negative");

    FaultEvent event;
    event.time = time;
    event.target = target;
    event.severity = 0.0;  // meaningful for degrade only; normalized so
                           // parse(to_text(s)) reproduces s exactly
    if (kind_word == "crash") {
      event.kind = FaultKind::kServerCrash;
    } else if (kind_word == "recover") {
      event.kind = FaultKind::kServerRecover;
    } else if (kind_word == "degrade") {
      event.kind = FaultKind::kLinkDegrade;
      if (!(fields >> event.severity))
        return fail("degrade needs a severity");
      if (!(event.severity > 0.0 && event.severity < 1.0))
        return fail("degrade severity must be in (0, 1)");
    } else if (kind_word == "restore") {
      event.kind = FaultKind::kLinkRestore;
    } else if (kind_word == "disconnect") {
      event.kind = FaultKind::kUserDisconnect;
    } else {
      return fail("unknown fault '" + kind_word + "'");
    }
    std::string extra;
    if (fields >> extra) return fail("trailing garbage '" + extra + "'");
    script.add(event);
  }
  return script;
}

}  // namespace mecoff::sim
