// Closed-loop chaos soak for the solve service: the whole robustness
// surface exercised in one run, with a machine-readable trajectory.
//
// Eight phases drive >= 10k requests through a SolveService while a
// serve::FaultInjector replays seeded fault scripts against it (shard
// kills with failover, injected solve latency that forces hedged
// retries, a stolen cache publish, exhausted deadline budgets, the
// in-flight cap under a client flood, and a graceful drain):
//
//   cold           each steady-state app solved once, sequentially —
//                  fills the cache, records the reference placements;
//   steady         warm-cache closed loop: the healthy baseline the
//                  chaos phases are compared against;
//   open_loop      warm-cache open loop: each client paces requests at
//                  a fixed arrival rate (the open_loop_rate_hz knob)
//                  instead of closing the loop on responses;
//   chaos_kill     fresh app set under a script that kills shards
//                  while their cold solves are being dispatched, then
//                  kills ALL shards, then recovers — plus one stolen
//                  publish (the "result lost on the way back" fault
//                  riders survive by promotion);
//   chaos_latency  fresh app set, every shard scripted with ~45 ms of
//                  injected solve latency, per-request budgets of
//                  80 ms — riders blow their hedge wait and duplicate
//                  the solve on another shard, or degrade on budget
//                  exhaustion;
//   budget_zero    fresh app set with a 0-second budget: every request
//                  deterministically degrades to the valid all-local
//                  scheme (the budget is spent before any solve);
//   flood          a second service admitting at most 4 requests in
//                  flight, flooded by 8 closed-loop clients — requests
//                  past the cap are shed to the all-local placement
//                  while the cache warms;
//   drain          begin_drain() on the main service while clients are
//                  still sending: every response comes back instantly
//                  as the all-local degrade, then await_idle confirms
//                  nothing is left in flight.
//
// INVARIANTS (the run fails, and tools/bench_gate.py re-asserts them
// from the committed trajectory): zero errors, zero placement
// mismatches (every non-degraded response byte-identical to its cold
// reference), zero wedged responses (none slower than the watchdog
// threshold), zero unanswered requests. Chaos degrades quality, never
// correctness.
//
// Output: human tables plus one "[trajectory] {...}" line (schema
// mecoff.soak_trajectory.v1) that tools/bench_gate.py diffs against
// bench/BENCH_soak_baseline.json — deterministic counts exactly,
// timing-dependent ones presence-only. `out=<path>` also writes the
// trajectory document to a file. A second "[timeline] {...}" line
// (schema mecoff.timeline.v1) carries the soak-wide metrics curve,
// sampled only at quiescent harness barriers with the deterministic
// key filter — replaying the soak reprints it byte-for-byte.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.hpp"
#include "common/strings.hpp"
#include "mec/scheme.hpp"
#include "obs/timeline.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/fault_injector.hpp"
#include "serve/solve_service.hpp"
#include "sim/fault_script.hpp"
#include "support/load_harness.hpp"
#include "support/reporting.hpp"
#include "support/workloads.hpp"

namespace {

using namespace mecoff;
using namespace mecoff::bench;

// Small apps keep the whole soak around CI-smoke scale while still
// running the full spectral pipeline per cold solve.
constexpr PaperScale kScale{60, 290};
constexpr std::size_t kSteadyApps = 12;
constexpr std::size_t kChaosApps = 8;
constexpr std::size_t kClients = 4;
constexpr double kWedgeSeconds = 5.0;
// Every load phase is split into this many barrier-delimited segments,
// so each phase contributes >= 3 cumulative samples to its curve and
// the shared timeline.
constexpr std::size_t kSegments = 3;

struct PhaseRecord {
  std::string name;
  std::size_t clients = 0;
  LoadOutcome outcome;
};

std::vector<serve::SolveRequest> make_apps(std::size_t count,
                                           std::size_t seed_base) {
  std::vector<serve::SolveRequest> requests;
  requests.reserve(count);
  for (std::size_t a = 0; a < count; ++a)
    requests.push_back({make_user(kScale, seed_base + a), paper_params()});
  return requests;
}

/// Reference placements from a pristine service (same solver config,
/// no injector): what an unconstrained cold solve returns. Chaos
/// phases compare every full-quality response against these.
std::vector<std::vector<mec::Placement>> solve_reference(
    parallel::ThreadPool& pool,
    const std::vector<serve::SolveRequest>& requests) {
  serve::SolveServiceOptions options;
  options.pool = &pool;
  options.shards = 4;
  serve::SolveService reference_service(options);
  std::vector<std::vector<mec::Placement>> reference;
  reference.reserve(requests.size());
  for (const serve::SolveRequest& request : requests) {
    auto r = reference_service.solve(request);
    if (!r.ok() || r.value().degraded) return {};
    reference.push_back(std::move(r.value().placement));
  }
  return reference;
}

std::string phase_json(const PhaseRecord& record) {
  const LoadOutcome& o = record.outcome;
  std::string json = "{\"name\":\"" + record.name + "\"";
  json += ",\"clients\":" + std::to_string(record.clients);
  json += ",\"requests\":" + std::to_string(o.requests);
  json += ",\"errors\":" + std::to_string(o.errors);
  json += ",\"mismatches\":" + std::to_string(o.mismatches);
  json += ",\"wedged\":" + std::to_string(o.wedged);
  json += ",\"solved\":" + std::to_string(o.solved);
  json += ",\"hits\":" + std::to_string(o.hits);
  json += ",\"coalesced\":" + std::to_string(o.coalesced);
  json += ",\"shed\":" + std::to_string(o.shed);
  json += ",\"hedged\":" + std::to_string(o.hedged);
  json += ",\"deadline_degraded\":" + std::to_string(o.deadline_degraded);
  json += ",\"degraded\":" + std::to_string(o.degraded);
  json += ",\"wall_seconds\":" + format_general(o.wall_seconds, 6);
  json += ",\"p50_seconds\":" + format_general(o.percentile(0.50), 6);
  json += ",\"p95_seconds\":" + format_general(o.percentile(0.95), 6);
  json += ",\"p99_seconds\":" + format_general(o.percentile(0.99), 6);
  if (!o.samples.empty()) {
    json += ",\"samples\":[";
    for (std::size_t i = 0; i < o.samples.size(); ++i) {
      const SegmentSample& s = o.samples[i];
      if (i > 0) json += ',';
      json += "{\"segment\":" + std::to_string(s.segment);
      json += ",\"requests\":" + std::to_string(s.requests);
      json += ",\"solved\":" + std::to_string(s.solved);
      json += ",\"hits\":" + std::to_string(s.hits);
      json += ",\"coalesced\":" + std::to_string(s.coalesced);
      json += ",\"shed\":" + std::to_string(s.shed);
      json += ",\"hedged\":" + std::to_string(s.hedged);
      json += ",\"deadline_degraded\":" + std::to_string(s.deadline_degraded);
      json += ",\"degraded\":" + std::to_string(s.degraded);
      json += ",\"wall_seconds\":" + format_general(s.wall_seconds, 6);
      json += '}';
    }
    json += ']';
  }
  json += '}';
  return json;
}

int run(const std::string& out_path) {
  parallel::ThreadPool pool(4);
  serve::FaultInjector injector({/*shards=*/4,
                                 /*latency_scale_seconds=*/0.05});
  serve::SolveServiceOptions options;
  options.pool = &pool;
  options.shards = 4;
  options.hedge_fraction = 0.25;
  options.injector = &injector;
  serve::SolveService service(options);

  const std::vector<serve::SolveRequest> steady_apps =
      make_apps(kSteadyApps, /*seed_base=*/900);
  const std::vector<serve::SolveRequest> kill_apps =
      make_apps(kChaosApps, /*seed_base=*/930);
  const std::vector<serve::SolveRequest> latency_apps =
      make_apps(kChaosApps, /*seed_base=*/960);
  const std::vector<serve::SolveRequest> budget_apps =
      make_apps(kChaosApps, /*seed_base=*/990);

  // One timeline spans the whole soak, sampled only at harness barriers
  // (and the cold loop's manual checkpoints) with a globally monotonic
  // tick — the cumulative request count across phases. The key filter
  // keeps exactly the counters that are deterministic at quiescent
  // barriers, which is what makes the [timeline] line byte-identical
  // across replays (manual mode emits no wall-clock fields).
  obs::Timeline::Options timeline_options;
  timeline_options.capacity = 64;
  timeline_options.mode = obs::Timeline::Mode::kManual;
  timeline_options.keys = {"serve.solve.requests", "serve.solve.drained"};
  obs::Timeline timeline(timeline_options);

  std::vector<PhaseRecord> phases;
  std::size_t issued = 0;
  // Segment every load phase and sample the timeline at each boundary.
  // `base` is the soak-wide request count when the phase starts, so
  // ticks stay monotonic across phases.
  const auto curve = [&timeline](LoadOptions& load, std::size_t base) {
    load.segments = kSegments;
    load.on_segment = [&timeline, base](const SegmentSample& sample) {
      timeline.sample_now(base + sample.requests);
    };
  };
  // arm() resets the injector's counters with the rest of its state, so
  // fold them into running totals before every re-arm.
  std::uint64_t fault_events_applied = 0;
  std::uint64_t fault_publish_steals = 0;
  const auto snapshot_faults = [&] {
    const serve::FaultInjector::Stats snap = injector.stats();
    fault_events_applied += snap.events_applied;
    fault_publish_steals += snap.publish_failures;
  };

  // -- cold: fill the cache, keep the reference placements ------------
  std::vector<std::vector<mec::Placement>> steady_reference(kSteadyApps);
  {
    PhaseRecord record{"cold", 1, {}};
    const Stopwatch timer;
    for (std::size_t a = 0; a < kSteadyApps; ++a) {
      auto r = service.solve(steady_apps[a]);
      ++record.outcome.requests;
      if (!r.ok()) {
        ++record.outcome.errors;
        continue;
      }
      if (r.value().source != serve::SolveSource::kSolved ||
          r.value().degraded) {
        std::fprintf(stderr, "cold solve %zu not a clean miss\n", a);
        return 1;
      }
      record.outcome.latencies.push_back(r.value().latency_seconds);
      ++record.outcome.solved;
      steady_reference[a] = std::move(r.value().placement);
      // Manual checkpoints: the sequential cold loop has no harness
      // barriers, so fold a cumulative sample every third of the way.
      if ((a + 1) % (kSteadyApps / kSegments) == 0) {
        SegmentSample sample;
        sample.segment = record.outcome.samples.size() + 1;
        sample.requests = record.outcome.requests;
        sample.solved = record.outcome.solved;
        sample.wall_seconds = timer.elapsed_seconds();
        timeline.sample_now(sample.requests);  // cold starts at tick 0
        record.outcome.samples.push_back(sample);
      }
    }
    record.outcome.wall_seconds = timer.elapsed_seconds();
    issued += kSteadyApps;
    phases.push_back(std::move(record));
  }

  // -- steady: the healthy warm-cache baseline ------------------------
  {
    LoadOptions load;
    load.clients = kClients;
    load.total_requests = 3000;
    load.wedge_seconds = kWedgeSeconds;
    curve(load, issued);
    issued += load.total_requests;
    phases.push_back(
        {"steady", kClients,
         run_load(service, steady_apps, steady_reference, load)});
  }

  // -- open_loop: fixed arrival rate against the warm cache -----------
  {
    // The dormant knob, exercised: each of the 4 clients paces its own
    // 150-request share at 150 req/s (request i due at i/rate on the
    // client's clock) instead of closing the loop on the previous
    // response. Warm cache + no faults keeps the service comfortably
    // ahead of the arrival schedule, so the curve shows a rate-shaped
    // request ramp rather than a contention artefact — and every
    // response still checks byte-identical against the reference.
    LoadOptions load;
    load.clients = kClients;
    load.total_requests = 600;
    load.open_loop_rate_hz = 150.0;
    load.wedge_seconds = kWedgeSeconds;
    curve(load, issued);
    issued += load.total_requests;
    phases.push_back(
        {"open_loop", kClients,
         run_load(service, steady_apps, steady_reference, load)});
  }

  // -- chaos_kill: shard kills + failover + one stolen publish --------
  const std::vector<std::vector<mec::Placement>> kill_reference =
      solve_reference(pool, kill_apps);
  if (kill_reference.empty()) {
    std::fprintf(stderr, "reference solve for chaos_kill failed\n");
    return 1;
  }
  {
    // Script times are request sequence numbers (arm() resets the
    // clock). Shards 0 and 1 die while the app set's cold solves are
    // dispatched; one publish is stolen; then EVERY shard dies for a
    // window (cache hits keep flowing; anything cold degrades to
    // all-local); then full recovery.
    sim::FaultScript script;
    script.crash_server(1, 0)
        .crash_server(3, 1)
        .disconnect_user(5, 0)
        .crash_server(600, 2)
        .crash_server(600, 3)
        .recover_server(1200, 0)
        .recover_server(1200, 1)
        .recover_server(1200, 2)
        .recover_server(1200, 3);
    injector.arm(script);
    LoadOptions load;
    load.clients = kClients;
    load.total_requests = 2500;
    load.wedge_seconds = kWedgeSeconds;
    curve(load, issued);
    issued += load.total_requests;
    phases.push_back({"chaos_kill", kClients,
                      run_load(service, kill_apps, kill_reference, load)});
  }

  // -- chaos_latency: injected stalls vs deadline budgets -------------
  const std::vector<std::vector<mec::Placement>> latency_reference =
      solve_reference(pool, latency_apps);
  if (latency_reference.empty()) {
    std::fprintf(stderr, "reference solve for chaos_latency failed\n");
    return 1;
  }
  {
    // Severity 0.9 x 50 ms scale = 45 ms injected per cold solve on
    // every shard; budgets are 80 ms with hedge_fraction 0.25, so a
    // rider waits at most ~20 ms before hedging into the same storm.
    sim::FaultScript script;
    script.degrade_link(1, 0, 0.9)
        .degrade_link(1, 1, 0.9)
        .degrade_link(1, 2, 0.9)
        .degrade_link(1, 3, 0.9)
        .restore_link(1500, 0)
        .restore_link(1500, 1)
        .restore_link(1500, 2)
        .restore_link(1500, 3);
    snapshot_faults();
    injector.arm(script);

    // Deterministic hedge probe: client A cold-solves an app into the
    // 45 ms stall; client B arrives 10 ms later as a rider, blows its
    // ~20 ms hedge wait while A is still stalled, and MUST hedge. The
    // two responses are folded into this phase's tallies.
    PhaseRecord record{"chaos_latency", kClients, {}};
    {
      serve::SolveRequest probe = latency_apps[0];
      probe.deadline_seconds = 0.08;
      std::optional<serve::SolveResponse> responses[2];
      bool failed[2] = {false, false};
      auto issue = [&](std::size_t slot, double delay_seconds) {
        if (delay_seconds > 0.0)
          std::this_thread::sleep_for(
              std::chrono::duration<double>(delay_seconds));
        auto r = service.solve(probe);
        if (r.ok())
          responses[slot] = std::move(r.value());
        else
          failed[slot] = true;
      };
      std::thread owner([&] { issue(0, 0.0); });
      std::thread rider([&] { issue(1, 0.010); });
      owner.join();
      rider.join();
      issued += 2;
      for (std::size_t slot = 0; slot < 2; ++slot) {
        ++record.outcome.requests;
        if (failed[slot] || !responses[slot]) {
          ++record.outcome.errors;
          continue;
        }
        const serve::SolveResponse& response = *responses[slot];
        record.outcome.latencies.push_back(response.latency_seconds);
        switch (response.source) {
          case serve::SolveSource::kSolved: ++record.outcome.solved; break;
          case serve::SolveSource::kCacheHit: ++record.outcome.hits; break;
          case serve::SolveSource::kCoalesced:
            ++record.outcome.coalesced;
            break;
          case serve::SolveSource::kShed: ++record.outcome.shed; break;
          case serve::SolveSource::kHedged: ++record.outcome.hedged; break;
          case serve::SolveSource::kDeadlineDegraded:
            ++record.outcome.deadline_degraded;
            break;
        }
        if (response.degraded) ++record.outcome.degraded;
        if (!response.degraded &&
            response.placement != latency_reference[0])
          ++record.outcome.mismatches;
      }
    }

    LoadOptions load;
    load.clients = kClients;
    load.total_requests = 2500;
    load.deadline_seconds = 0.08;
    load.wedge_seconds = kWedgeSeconds;
    curve(load, issued);
    issued += load.total_requests;
    const LoadOutcome storm =
        run_load(service, latency_apps, latency_reference, load);
    record.outcome.samples = storm.samples;
    record.outcome.requests += storm.requests;
    record.outcome.errors += storm.errors;
    record.outcome.mismatches += storm.mismatches;
    record.outcome.wedged += storm.wedged;
    record.outcome.solved += storm.solved;
    record.outcome.hits += storm.hits;
    record.outcome.coalesced += storm.coalesced;
    record.outcome.shed += storm.shed;
    record.outcome.hedged += storm.hedged;
    record.outcome.deadline_degraded += storm.deadline_degraded;
    record.outcome.degraded += storm.degraded;
    record.outcome.wall_seconds += storm.wall_seconds;
    record.outcome.latencies.insert(record.outcome.latencies.end(),
                                    storm.latencies.begin(),
                                    storm.latencies.end());
    std::sort(record.outcome.latencies.begin(),
              record.outcome.latencies.end());
    phases.push_back(std::move(record));
  }

  // -- budget_zero: deterministic deadline exhaustion -----------------
  {
    snapshot_faults();
    injector.arm(sim::FaultScript{});  // clear all standing faults
    LoadOptions load;
    load.clients = kClients;
    load.total_requests = 600;
    load.deadline_seconds = 0.0;
    load.wedge_seconds = kWedgeSeconds;
    curve(load, issued);
    issued += load.total_requests;
    // Never-seen apps + a zero budget: the budget is spent before any
    // solve can start, so every response is the all-local degrade.
    phases.push_back({"budget_zero", kClients,
                      run_load(service, budget_apps, {}, load)});
  }

  // -- flood: the in-flight cap under more clients than it admits ----
  {
    serve::SolveServiceOptions flood_options;
    flood_options.pool = &pool;
    flood_options.shards = 4;
    flood_options.max_in_flight = 4;
    serve::SolveService flood_service(flood_options);
    LoadOptions load;
    load.clients = 8;
    load.total_requests = 1200;
    load.wedge_seconds = kWedgeSeconds;
    curve(load, issued);
    issued += load.total_requests;
    phases.push_back(
        {"flood", 8,
         run_load(flood_service, steady_apps, steady_reference, load)});
  }

  // -- drain: graceful shutdown under load ----------------------------
  bool drained_clean = false;
  {
    service.begin_drain();
    LoadOptions load;
    load.clients = kClients;
    load.total_requests = 400;
    load.wedge_seconds = kWedgeSeconds;
    curve(load, issued);
    issued += load.total_requests;
    PhaseRecord record{"drain", kClients,
                       run_load(service, steady_apps, {}, load)};
    drained_clean = record.outcome.shed == record.outcome.requests &&
                    service.await_idle(/*timeout_seconds=*/10.0);
    phases.push_back(std::move(record));
  }

  // -- report ---------------------------------------------------------
  LoadOutcome totals;
  std::vector<std::vector<std::string>> rows;
  for (const PhaseRecord& record : phases) {
    const LoadOutcome& o = record.outcome;
    totals.requests += o.requests;
    totals.errors += o.errors;
    totals.mismatches += o.mismatches;
    totals.wedged += o.wedged;
    totals.solved += o.solved;
    totals.hits += o.hits;
    totals.coalesced += o.coalesced;
    totals.shed += o.shed;
    totals.hedged += o.hedged;
    totals.deadline_degraded += o.deadline_degraded;
    totals.degraded += o.degraded;
    totals.wall_seconds += o.wall_seconds;
    rows.push_back({record.name, std::to_string(o.requests),
                    format_fixed(o.wall_seconds, 3) + " s",
                    format_fixed(o.percentile(0.99) * 1e3, 2) + " ms",
                    std::to_string(o.hits), std::to_string(o.hedged),
                    std::to_string(o.deadline_degraded),
                    std::to_string(o.shed + o.degraded)});
  }
  const std::size_t unanswered = issued - totals.requests;
  print_table("Chaos soak (seeded fault scripts against the live service)",
              {"phase", "requests", "wall", "p99", "hits", "hedged",
               "deadline", "shed+degr"},
              rows);

  const serve::SolveService::Stats stats = service.stats();
  snapshot_faults();
  std::printf(
      "faults: %llu events applied, %llu publish steals, "
      "%llu shard failovers\n",
      static_cast<unsigned long long>(fault_events_applied),
      static_cast<unsigned long long>(fault_publish_steals),
      static_cast<unsigned long long>(stats.shard_failovers));

  const auto by_name = [&phases](const char* name) -> const PhaseRecord& {
    for (const PhaseRecord& record : phases)
      if (record.name == name) return record;
    return phases.front();
  };
  const PhaseRecord& budget_zero = by_name("budget_zero");
  print_shape_check("every request answered (none unanswered)",
                    unanswered == 0);
  print_shape_check("zero errors", totals.errors == 0);
  print_shape_check("non-degraded placements byte-identical to reference",
                    totals.mismatches == 0);
  print_shape_check("zero wedged responses", totals.wedged == 0);
  print_shape_check("soak is >= 10k requests", totals.requests >= 10000);
  print_shape_check("chaos_kill survived shard kills (failovers seen)",
                    stats.shard_failovers > 0);
  print_shape_check(
      "zero budget deterministically degrades every request",
      budget_zero.outcome.deadline_degraded == budget_zero.outcome.requests);
  print_shape_check("injected latency forced hedged retries",
                    stats.hedged > 0);
  print_shape_check("drain answered everything and went idle",
                    drained_clean);
  bool curves_complete = true;
  for (const PhaseRecord& record : phases)
    if (record.outcome.samples.size() < kSegments) curves_complete = false;
  print_shape_check("every phase sampled a >= 3 point curve",
                    curves_complete);

  // The trajectory document. bench_gate.py compares the deterministic
  // counts exactly, treats timing-dependent entries presence-only, and
  // re-asserts invariants_zero == 0 in every candidate run.
  std::string doc = "{\"schema\":\"mecoff.soak_trajectory.v1\"";
  doc += ",\"title\":\"bench_soak\",\"phases\":[";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    if (i > 0) doc += ',';
    doc += phase_json(phases[i]);
  }
  doc += "],\"totals\":{";
  doc += "\"requests\":" + std::to_string(totals.requests);
  doc += ",\"errors\":" + std::to_string(totals.errors);
  doc += ",\"mismatches\":" + std::to_string(totals.mismatches);
  doc += ",\"wedged\":" + std::to_string(totals.wedged);
  doc += ",\"unanswered\":" + std::to_string(unanswered);
  doc += ",\"solved\":" + std::to_string(totals.solved);
  doc += ",\"hits\":" + std::to_string(totals.hits);
  doc += ",\"coalesced\":" + std::to_string(totals.coalesced);
  doc += ",\"shed\":" + std::to_string(totals.shed);
  doc += ",\"hedged\":" + std::to_string(totals.hedged);
  doc += ",\"deadline_degraded\":" + std::to_string(totals.deadline_degraded);
  doc += ",\"degraded\":" + std::to_string(totals.degraded);
  doc += ",\"wall_seconds\":" + format_general(totals.wall_seconds, 6);
  doc += "},\"invariants_zero\":[\"totals.errors\",\"totals.mismatches\","
         "\"totals.wedged\",\"totals.unanswered\"]}";
  std::printf("[trajectory] %s\n", doc.c_str());
  // The soak-wide mecoff.timeline.v1 document: manual mode, barrier
  // ticks, deterministic key filter — a replayed run prints this line
  // byte-identically (CI diffs two runs).
  std::printf("[timeline] %s\n", timeline.to_json().c_str());
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (out) out << doc << '\n';
    if (!out) std::fprintf(stderr, "could not write %s\n", out_path.c_str());
  }

  const bool ok =
      unanswered == 0 && totals.errors == 0 && totals.mismatches == 0 &&
      totals.wedged == 0 && totals.requests >= 10000 &&
      budget_zero.outcome.deadline_degraded == budget_zero.outcome.requests &&
      drained_clean && curves_complete;
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "out=", 4) == 0) out_path = argv[i] + 4;
  }
  const int rc = run(out_path);
  print_metrics_json("bench_soak");
  return rc;
}
