// Shared load driver for the solve service.
//
// bench_serve, bench_soak and `mecoff_cli serve-solve selfcheck=` all
// need the same closed-loop machinery: C client threads replaying a
// request set against a SolveService, classifying every response by
// provenance, checking full-quality placements byte-identical to a
// cold reference, and folding latencies into percentiles. This library
// is that machinery extracted once (ROADMAP item 5 names exactly this
// refactor), so the bench curve, the soak harness and the CLI smoke
// all measure the same thing.
//
// The request pattern is canonical and deterministic: client c's i-th
// request is app (c + i) % apps — the pattern bench_serve committed
// its baseline counters with. Open-loop mode paces each client at a
// fixed rate instead of back-to-back; the watchdog classifies any
// single response slower than `wedge_seconds` as WEDGED, the
// anomaly class chaos soaks must keep at zero (a wedged request came
// back — a hung one would stall the whole run, which CI's timeout
// catches).
//
// THREADING: clients are plain std::threads — external to the
// service's pool, as SolveService's contract requires.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "mec/scheme.hpp"
#include "obs/timeline.hpp"
#include "serve/solve_service.hpp"

namespace mecoff::bench {

/// Cumulative tallies at one quiescent segment boundary (see
/// LoadOptions::segments). All counts are since the start of this
/// run_load call, not per-segment deltas — curve consumers difference
/// them if they want rates.
struct SegmentSample {
  std::size_t segment = 0;  ///< 1-based boundary index
  std::size_t requests = 0;
  std::size_t solved = 0;
  std::size_t hits = 0;
  std::size_t coalesced = 0;
  std::size_t shed = 0;
  std::size_t hedged = 0;
  std::size_t deadline_degraded = 0;
  std::size_t degraded = 0;
  double wall_seconds = 0.0;  ///< since run_load start (timing only)
};

struct LoadOptions {
  /// Concurrent client threads.
  std::size_t clients = 4;
  /// Total requests across all clients; client c issues
  /// total/clients (+1 for the first total%clients clients).
  std::size_t total_requests = 100;
  /// Open-loop pacing per client in requests/second; 0 = closed loop
  /// (next request as soon as the previous answers). In open loop a
  /// request's latency runs from its scheduled send time.
  double open_loop_rate_hz = 0.0;
  /// Per-request deadline budget handed to the service; negative = the
  /// service default.
  double deadline_seconds = -1.0;
  /// A response whose service time exceeds this counts as wedged;
  /// <= 0 disables.
  double wedge_seconds = 0.0;
  /// Split every client's share into this many chunks with a full
  /// cross-client barrier after each: at a boundary ALL clients are
  /// quiescent, so cumulative tallies (and registry counters fed only
  /// by this load) are deterministic there — the sampling points that
  /// make a soak phase a reproducible curve, not one point. 1 (the
  /// default) keeps the seed behavior: no barriers, one final sample.
  /// The per-client request pattern is unchanged — clients merely
  /// pause at boundaries.
  std::size_t segments = 1;
  /// Called at each segment boundary (the final one included) by
  /// exactly one thread while all clients are parked. Cheap work only:
  /// every client waits on it.
  std::function<void(const SegmentSample&)> on_segment;
  /// Timeline sampled at each boundary with tick = cumulative requests
  /// (Timeline::sample_now). Deterministic for registry keys fed only
  /// by this load — the harness half of the tick-mode /timez
  /// determinism contract. May be null.
  obs::Timeline* timeline = nullptr;
};

struct LoadOutcome {
  std::size_t requests = 0;   ///< responses received (== issued)
  std::size_t errors = 0;     ///< Result errors (malformed input only)
  std::size_t mismatches = 0; ///< full-quality placement != reference
  std::size_t wedged = 0;     ///< service time over wedge_seconds
  /// Per-provenance response counts (sum == requests).
  std::size_t solved = 0;
  std::size_t hits = 0;
  std::size_t coalesced = 0;
  std::size_t shed = 0;
  std::size_t hedged = 0;
  std::size_t deadline_degraded = 0;
  /// Responses with the degraded flag set (any provenance).
  std::size_t degraded = 0;
  double wall_seconds = 0.0;
  /// All response latencies (run_load sorts them ascending). Closed
  /// loop: the service time. Open loop: completion minus the request's
  /// scheduled send time, which includes any wait behind a stall.
  std::vector<double> latencies;
  /// One cumulative sample per segment boundary (empty when
  /// LoadOptions::segments == 1 and no on_segment/timeline is wired).
  std::vector<SegmentSample> samples;

  /// Latency percentile over `latencies` in any order (nearest-rank
  /// at q * (n - 1) of the sorted samples, the same definition
  /// bench_serve always printed).
  [[nodiscard]] double percentile(double q) const;
};

/// Drive `service` with options.total_requests requests drawn from
/// `requests` by the canonical (c + i) % apps pattern. `reference[a]`,
/// when present and non-empty, is the expected full-quality placement
/// of app a: every non-degraded response (solved, hit, coalesced,
/// clean hedge) is compared byte-for-byte and counted as a mismatch on
/// any difference. Degraded responses (shed, deadline, fallback cuts)
/// are valid by construction and exempt. Pass an empty `reference` to
/// skip identity checking entirely.
[[nodiscard]] LoadOutcome run_load(
    serve::SolveService& service,
    const std::vector<serve::SolveRequest>& requests,
    const std::vector<std::vector<mec::Placement>>& reference,
    const LoadOptions& options);

}  // namespace mecoff::bench
