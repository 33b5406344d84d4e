// SolveService: the online front half of the reproduction.
//
// The paper's Algorithm 1 solves a BATCH of users; serving a churning
// population means accepting per-user solve requests one at a time,
// coalescing redundant work, and shedding load before latency blows
// through the SLO. The service composes the pieces the repo already
// has:
//
//   ingest   solve(SolveRequest) — called concurrently from external
//            threads (an HTTP worker, the CLI, a bench driver);
//   shard    cold solves map to one of `shards` logical shards by
//            fingerprint (the unit the fault injector kills and
//            stalls); each cold solve is one task on the shared
//            ThreadPool, and everything inside it runs inline;
//   cache    a content-addressed SchemeCache keyed by the canonical
//            request fingerprint, with single-flight semantics —
//            concurrent identical requests ride one solve (the online
//            generalization of identical_user_period);
//   solve    PipelineOffloader on a single-user system, solver options
//            fixed at service construction (and folded into the cache
//            key as a seed fingerprint);
//   shed     admission control: at most `max_in_flight` requests
//            admitted (lowered at runtime by set_admission_limit). A
//            rejected request is NOT dropped — it degrades to a valid
//            all-local placement immediately (degrade-don't-die, same
//            philosophy as the solver's spectral → KL → all-remote
//            chain). The cap and drain are the only shed paths.
//
// DEADLINE BUDGETS + HEDGED RETRY: a request may carry a wall-clock
// budget that flows through every stage. A rider parks behind an
// in-flight owner for at most `hedge_fraction` of its budget; past
// that it HEDGES — runs its own duplicate solve on another shard
// (counter serve.solve.hedged) rather than waiting out a stalled
// owner. Cold solves get the REMAINING budget as their
// PipelineOptions::deadline. A budget that is exhausted before any
// solve can start degrades to the valid all-local scheme
// (serve.solve.deadline_degraded) — never an error, never a hang.
//
// DRAIN: begin_drain() flips the service into shutdown mode — every
// new request is answered immediately with the all-local degrade
// (counter serve.solve.drained) while in-flight work runs to
// completion; await_idle() lets the caller wait for the last in-flight
// request to leave. SIGTERM handling (stop accepting → drain → dump
// the flight recorder → exit 0) lives in the callers (mecoff_cli,
// bench_soak); the service just guarantees no request is ever torn.
//
// FAULT INJECTION: an optional serve::FaultInjector perturbs the
// service deterministically (see fault_injector.hpp): killed shards
// are skipped at dispatch (serve.solve.shard_failovers) and degrade to
// all-local when none survive; injected per-shard latency stalls cold
// solves (bounded by the request's remaining budget); armed publish
// failures turn a publish into an abandon (riders survive by
// promotion).
//
// Degraded results (deadline expired or any fallback cut) are served
// to their requester but never published to the cache: cached entries
// are always full-quality, so a cache hit is bit-identical to what an
// unconstrained cold solve would return.
//
// THREADING CONTRACT: call solve() from threads that are NOT workers
// of the service's pool. A rider blocks on the cache's condition
// variable; parking a pool worker there could starve the very solve it
// is waiting on. External callers (HTTP workers, main threads, bench
// clients) are always safe; the cold solve itself runs ON the pool via
// submit + a plain future wait.
//
// Metrics (all through the obs facade):
//   serve.solve.requests / cache_hits / cache_misses / coalesced /
//   shed / degraded / hedged / deadline_degraded / drained /
//   shard_failovers / failed                         counters
//   serve.cache.evictions / wait_timeouts / publish_failures  counters
//   serve.solve.in_flight                            gauge
//   serve.solve.latency                              quantiles
//     (p50/p95/p99 on /metrics via the standard exposition)
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/result.hpp"
#include "mec/model.hpp"
#include "mec/offloader.hpp"
#include "mec/scheme.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/fault_injector.hpp"
#include "serve/fingerprint.hpp"
#include "serve/scheme_cache.hpp"

namespace mecoff::serve {

/// One user's solve input. `params` carries the cost/channel state —
/// requests with different channel conditions hash to different cache
/// entries by construction.
struct SolveRequest {
  mec::UserApp user;
  mec::SystemParams params;
  /// Per-request wall-clock budget, seconds. Negative = use the
  /// service's default_deadline_seconds. The budget is deliberately
  /// NOT part of the cache key (it is a constraint, not an input).
  double deadline_seconds = -1.0;
  /// Correlation id. 0 (the default) = the service assigns one: the
  /// fault injector's request sequence number when an injector is
  /// wired (so ids line up with "req <seq>" trace lines and replays
  /// are deterministic), else a service-local counter. Caller-supplied
  /// ids (e.g. from an X-Mecoff-Request-Id header) pass through
  /// untouched. NOT part of the cache key.
  std::uint64_t request_id = 0;
};

/// Where the placement came from.
enum class SolveSource : std::uint8_t {
  kSolved,     ///< cold solve (cache miss, this request did the work)
  kCacheHit,   ///< served from a ready cache entry
  kCoalesced,  ///< rode a concurrent identical request's solve
  kShed,       ///< admission control: immediate all-local fallback
               ///< (in-flight cap or drain mode)
  kHedged,     ///< owner blew the rider's wait budget; this request
               ///< ran its own duplicate solve on another shard
  kDeadlineDegraded,  ///< budget exhausted (or no shard alive) before
                      ///< a solve could run: valid all-local scheme
};

struct SolveResponse {
  /// Placement per function of the request's graph; ALWAYS valid for
  /// the request (pinned nodes local), even when shed or degraded.
  std::vector<mec::Placement> placement;
  SolveSource source = SolveSource::kSolved;
  /// True when a cold solve hit the deadline/fallback chain; degraded
  /// placements are served but not cached.
  bool degraded = false;
  double latency_seconds = 0.0;
  /// The request's cache key. Zero (`Fingerprint{}`) on a kShed
  /// response: drain and admission run before fingerprinting, so a shed
  /// never hashes the request.
  Fingerprint key;
  /// This request's correlation id (echoed from SolveRequest, or
  /// service-assigned — see SolveRequest::request_id). Never 0.
  std::uint64_t request_id = 0;
  /// Id of the request whose solve produced this placement: equals
  /// request_id for kSolved/kHedged (and the degrade sources); the
  /// cache owner's id for kCacheHit/kCoalesced (0 if the owner carried
  /// none — pre-id cache entries).
  std::uint64_t served_by_request_id = 0;
};

struct SolveServiceOptions {
  /// Execution engine for cold solves: one pool task per cold solve.
  /// null = solve on the calling thread.
  parallel::ThreadPool* pool = nullptr;
  /// Logical shards cold solves map to (keyed by fingerprint): the
  /// unit the fault injector kills and stalls. At least 1; the
  /// constructor rejects 0.
  std::size_t shards = 4;
  SchemeCache::Options cache;
  /// Admission hard cap: requests beyond this many concurrently
  /// in-flight are shed. SIZE_MAX = unlimited; 0 sheds everything.
  std::size_t max_in_flight = SIZE_MAX;
  /// Default per-request budget when SolveRequest::deadline_seconds is
  /// negative. Negative = unlimited (the seed behavior).
  double default_deadline_seconds = -1.0;
  /// Fraction of a request's budget a rider spends waiting on an
  /// in-flight owner before hedging its own solve. In (0, 1]; the
  /// constructor rejects anything else, NaN included.
  double hedge_fraction = 0.5;
  /// Optional deterministic fault injection; not owned. The injector
  /// must outlive the service. null = no faults.
  FaultInjector* injector = nullptr;
  /// Solver configuration, fixed for the service's lifetime and folded
  /// into every cache key. `pool` and `identical_user_period` are
  /// overridden internally; `deadline` is tightened per request to the
  /// remaining budget.
  mec::PipelineOptions solver;
};

class SolveService {
 public:
  explicit SolveService(SolveServiceOptions options = {});
  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Serve one request. Fails only on malformed input (shape mismatch,
  /// invalid params); overload, faults and solver degradation produce
  /// valid degraded responses instead of errors.
  [[nodiscard]] Result<SolveResponse> solve(const SolveRequest& request);

  /// Runtime admission knob (load shedding lever for operators):
  /// lowering it sheds NEW requests immediately; in-flight ones finish.
  void set_admission_limit(std::size_t max_in_flight) {
    admission_limit_.store(max_in_flight, std::memory_order_relaxed);
  }

  /// Enter drain mode: every subsequent request degrades to all-local
  /// immediately (source kShed, counted as drained); in-flight work
  /// finishes normally. Irreversible by design — drain precedes exit.
  void begin_drain() {
    draining_.store(true, std::memory_order_release);
  }
  [[nodiscard]] bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  /// Block until no request is in flight, polling; true on idle, false
  /// if `timeout_seconds` elapsed first. Call after begin_drain().
  [[nodiscard]] bool await_idle(double timeout_seconds) const;

  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t solved = 0;  ///< cold solves executed (hedges incl.)
    std::uint64_t cache_hits = 0;
    std::uint64_t coalesced = 0;
    std::uint64_t shed = 0;     ///< in-flight cap sheds
    std::uint64_t degraded = 0;
    std::uint64_t hedged = 0;   ///< duplicate solves after owner stall
    std::uint64_t deadline_degraded = 0;
    std::uint64_t drained = 0;  ///< requests answered in drain mode
    std::uint64_t shard_failovers = 0;  ///< killed shard skipped
    /// Cold solves (owner or hedge) that threw; solve() rethrew.
    std::uint64_t failed = 0;
    SchemeCache::Stats cache;
  };
  [[nodiscard]] Stats stats() const;

  /// The solver-configuration digest folded in front of every request
  /// fingerprint (diagnostics; lets tests assert key separation).
  [[nodiscard]] Fingerprint config_seed() const { return config_seed_; }

 private:
  /// Execute one cold solve (owner or hedge), honoring shard kills,
  /// injected latency and the remaining budget. `shard_offset` rotates
  /// the preferred shard (hedges use 1 to avoid the owner's shard).
  /// `request_id` is held in an obs::RequestIdScope around the solve
  /// (on whichever thread runs it) so the flight recorder and latency
  /// exemplar attribute the solve to this request.
  [[nodiscard]] std::vector<mec::Placement> run_cold_solve(
      const SolveRequest& request, const Fingerprint& key,
      double remaining_budget_seconds, std::size_t shard_offset,
      std::uint64_t request_id, bool& degraded, bool& no_shard_alive);

  /// Finish a response: correlation-id stamping and the latency
  /// record (id-tagged for the p99 exemplar).
  void finish(SolveResponse& response, std::uint64_t request_id,
              double latency_seconds);

  [[nodiscard]] SolveResponse degrade_response(const SolveRequest& request,
                                               const Fingerprint& key,
                                               SolveSource source) const;

  SolveServiceOptions options_;
  Fingerprint config_seed_;
  SchemeCache cache_;
  std::atomic<std::size_t> admission_limit_;
  std::atomic<bool> draining_{false};
  std::atomic<std::size_t> in_flight_{0};
  std::atomic<std::uint64_t> requests_{0};
  /// Fallback id source when no injector is wired and the caller did
  /// not supply one (ids are 1-based; 0 means "unassigned").
  std::atomic<std::uint64_t> next_request_id_{0};
  std::atomic<std::uint64_t> solved_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> degraded_{0};
  std::atomic<std::uint64_t> hedged_{0};
  std::atomic<std::uint64_t> deadline_degraded_{0};
  std::atomic<std::uint64_t> drained_{0};
  std::atomic<std::uint64_t> shard_failovers_{0};
  std::atomic<std::uint64_t> failed_{0};
};

}  // namespace mecoff::serve
