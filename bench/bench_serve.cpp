// Closed-loop driver for the online solve service: sustained request
// throughput at a p99 latency SLO, with the cache hit rate that makes
// it possible.
//
// Four deterministic phases (fixed request counts, so every serve.*
// counter is bit-stable for tools/bench_gate.py):
//   cold   each distinct app solved once, sequentially — all misses,
//          fills the cache and records the reference placements;
//   hot    concurrent closed-loop clients replaying the same apps —
//          100% cache hits; this is the phase the req/s and p50/p95/p99
//          numbers come from, and every response is checked
//          byte-identical to its cold placement;
//   shed   admission limit dropped to 0 (drain mode) — every request
//          degrades to an immediate all-local placement;
//   settle one sequential hit after restoring the limit, so the final
//          serve.solve.in_flight gauge write is deterministically 0.
//
// Latency percentiles are computed in-bench from the responses'
// latency_seconds (sorted sample); the /metrics quantiles exposition
// of the same stream is exercised by the CLI smoke and obs_serve tests.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/stopwatch.hpp"
#include "common/strings.hpp"
#include "mec/scheme.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/solve_service.hpp"
#include "support/load_harness.hpp"
#include "support/reporting.hpp"
#include "support/workloads.hpp"

namespace {

using namespace mecoff;
using namespace mecoff::bench;

constexpr std::size_t kDistinctApps = 16;
constexpr std::size_t kClients = 4;
constexpr std::size_t kHotPerClient = 125;
constexpr std::size_t kShedRequests = 100;
constexpr double kP99SloSeconds = 0.050;

int run() {
  parallel::ThreadPool pool(4);
  serve::SolveServiceOptions options;
  options.pool = &pool;
  options.shards = 4;
  serve::SolveService service(options);

  std::vector<serve::SolveRequest> requests;
  requests.reserve(kDistinctApps);
  for (std::size_t a = 0; a < kDistinctApps; ++a)
    requests.push_back({make_user(PaperScale{250, 1214}, /*seed=*/500 + a),
                        paper_params()});

  // -- cold: fill the cache, keep the reference placements ------------
  std::vector<std::vector<mec::Placement>> reference(kDistinctApps);
  Stopwatch cold_timer;
  for (std::size_t a = 0; a < kDistinctApps; ++a) {
    auto r = service.solve(requests[a]);
    if (!r.ok() || r.value().source != serve::SolveSource::kSolved) {
      std::fprintf(stderr, "cold solve %zu failed\n", a);
      return 1;
    }
    reference[a] = std::move(r.value().placement);
  }
  const double cold_s = cold_timer.elapsed_seconds();

  // -- hot: concurrent closed loop over a warm cache ------------------
  // The shared load harness replays the canonical (c + i) % apps
  // pattern this bench's baseline counters were committed with.
  constexpr std::size_t kHotTotal = kClients * kHotPerClient;
  LoadOptions hot_options;
  hot_options.clients = kClients;
  hot_options.total_requests = kHotTotal;
  const LoadOutcome hot = run_load(service, requests, reference, hot_options);
  const double hot_s = hot.wall_seconds;
  const std::size_t non_hits = hot.requests - hot.hits;
  const std::size_t mismatches = hot.mismatches;
  const double p50 = hot.percentile(0.50);
  const double p95 = hot.percentile(0.95);
  const double p99 = hot.percentile(0.99);

  // -- shed: drain mode -----------------------------------------------
  service.set_admission_limit(0);
  std::size_t shed_all_local = 0;
  Stopwatch shed_timer;
  for (std::size_t i = 0; i < kShedRequests; ++i) {
    auto r = service.solve(requests[i % kDistinctApps]);
    if (r.ok() && r.value().source == serve::SolveSource::kShed &&
        r.value().placement ==
            std::vector<mec::Placement>(r.value().placement.size(),
                                        mec::Placement::kLocal))
      ++shed_all_local;
  }
  const double shed_s = shed_timer.elapsed_seconds();

  // -- settle: deterministic final in_flight gauge write --------------
  service.set_admission_limit(SIZE_MAX);
  const auto settle = service.solve(requests[0]);

  const serve::SolveService::Stats stats = service.stats();
  const double hit_rate =
      static_cast<double>(stats.cache_hits) /
      static_cast<double>(std::max<std::uint64_t>(stats.requests, 1));
  print_table(
      "Solve service closed loop (16 apps of 250 functions, 4 clients)",
      {"phase", "requests", "wall", "req/s"},
      {{"cold (miss)", std::to_string(kDistinctApps),
        format_fixed(cold_s, 3) + " s",
        format_fixed(static_cast<double>(kDistinctApps) / cold_s, 0)},
       {"hot (hit)", std::to_string(kHotTotal),
        format_fixed(hot_s, 3) + " s",
        format_fixed(static_cast<double>(kHotTotal) / hot_s, 0)},
       {"shed", std::to_string(kShedRequests),
        format_fixed(shed_s, 3) + " s",
        format_fixed(static_cast<double>(kShedRequests) / shed_s, 0)}});
  std::printf("hot-phase latency: p50 %s ms, p95 %s ms, p99 %s ms "
              "(SLO %s ms)\n",
              format_fixed(p50 * 1e3, 3).c_str(),
              format_fixed(p95 * 1e3, 3).c_str(),
              format_fixed(p99 * 1e3, 3).c_str(),
              format_fixed(kP99SloSeconds * 1e3, 0).c_str());
  std::printf("cache hit rate: %s (%llu hits / %llu requests)\n",
              format_fixed(hit_rate, 3).c_str(),
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(stats.requests));

  print_shape_check("cold solves == distinct apps",
                    stats.solved == kDistinctApps);
  print_shape_check("hot phase served entirely from cache", non_hits == 0);
  print_shape_check("cache hits byte-identical to cold placements",
                    mismatches == 0);
  print_shape_check("cache hit rate > 0", stats.cache_hits > 0);
  print_shape_check("all shed responses are valid all-local",
                    shed_all_local == kShedRequests &&
                        stats.shed == kShedRequests);
  print_shape_check("hot p99 within SLO (50 ms)", p99 < kP99SloSeconds);
  const bool settle_hit =
      settle.ok() && settle.value().source == serve::SolveSource::kCacheHit;
  print_shape_check("service recovers after drain", settle_hit);

  const bool ok = stats.solved == kDistinctApps && non_hits == 0 &&
                  mismatches == 0 && shed_all_local == kShedRequests &&
                  settle_hit;
  return ok ? 0 : 1;
}

}  // namespace

int main() {
  const int rc = run();
  // Counter section is bit-stable by construction (fixed phase sizes,
  // sequential misses, warm-cache hits); latency/seconds entries are
  // presence-only under the gate's default policy.
  print_metrics_json("bench_serve");
  return rc;
}
