#include "serve/solve_service.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <utility>

#include "common/contracts.hpp"
#include "common/stopwatch.hpp"
#include "obs/obs.hpp"
#include "obs/request_id.hpp"

namespace mecoff::serve {

namespace {

/// Digest of everything in the solver configuration that can change a
/// placement. Folded in front of every request fingerprint so services
/// with different solver settings never share cache entries. The
/// deadline is excluded on purpose: it is a budget, not an input, and
/// degraded results are never published (see run_cold_solve).
Fingerprint fingerprint_solver_config(const mec::PipelineOptions& options) {
  FingerprintBuilder fp;
  fp.add_u64(0xC0);  // config section tag
  fp.add_double(options.propagation.coupling_threshold);
  fp.add_double(options.propagation.min_update_rate);
  fp.add_u64(options.propagation.max_rounds);
  fp.add_u64(static_cast<std::uint64_t>(options.backend));
  fp.add_u64(static_cast<std::uint64_t>(options.spectral.fiedler.backend));
  fp.add_double(options.spectral.fiedler.tolerance);
  fp.add_u64(options.spectral.fiedler.max_iterations);
  fp.add_u64(options.maxflow.num_pairs);
  fp.add_double(options.greedy.energy_weight);
  fp.add_double(options.greedy.time_weight);
  fp.add_bool(options.greedy.enable_group_moves);
  fp.add_bool(options.anchor_initial_parts);
  return fp.digest();
}

/// The shed fallback: everything on the device. Valid for any request
/// (pinned nodes are local by definition) and costs nothing to build —
/// the serving twin of the solver's terminal all-remote fallback.
std::vector<mec::Placement> all_local_placement(std::size_t num_nodes) {
  return std::vector<mec::Placement>(num_nodes, mec::Placement::kLocal);
}

/// Returns an admitted request's in-flight slot on every exit from
/// SolveService::solve, a throwing solve included: a leaked slot would
/// keep await_idle from ever succeeding and shrink admission for good.
class AdmittedSlot {
 public:
  explicit AdmittedSlot(std::atomic<std::size_t>& in_flight)
      : in_flight_(in_flight) {}
  AdmittedSlot(const AdmittedSlot&) = delete;
  AdmittedSlot& operator=(const AdmittedSlot&) = delete;
  ~AdmittedSlot() {
    const std::size_t remaining =
        in_flight_.fetch_sub(1, std::memory_order_acq_rel) - 1;
    MECOFF_GAUGE_SET("serve.solve.in_flight", static_cast<double>(remaining));
  }

 private:
  std::atomic<std::size_t>& in_flight_;
};

/// Releases an owned cache entry on every exit from the cold-solve
/// block that does not publish, a throwing solve included: an entry
/// left solving would strand its riders until their wait budgets ran
/// out. A hedge owns no entry, so its guard holds nothing.
class OwnedEntry {
 public:
  OwnedEntry(SchemeCache& cache, const Fingerprint& key, bool owned)
      : cache_(owned ? &cache : nullptr), key_(key) {}
  OwnedEntry(const OwnedEntry&) = delete;
  OwnedEntry& operator=(const OwnedEntry&) = delete;
  ~OwnedEntry() {
    if (cache_ != nullptr) cache_->abandon(key_);
  }

  void publish(std::vector<mec::Placement> placement) {
    std::exchange(cache_, nullptr)->publish(key_, std::move(placement));
  }

 private:
  SchemeCache* cache_;
  const Fingerprint key_;
};

}  // namespace

SolveService::SolveService(SolveServiceOptions options)
    : options_(std::move(options)),
      config_seed_(fingerprint_solver_config(options_.solver)),
      cache_(options_.cache),
      admission_limit_(options_.max_in_flight) {
  MECOFF_EXPECTS(options_.shards >= 1);
  // Written so that a NaN fraction fails too.
  MECOFF_EXPECTS(options_.hedge_fraction > 0.0 &&
                 options_.hedge_fraction <= 1.0);
}

SolveResponse SolveService::degrade_response(const SolveRequest& request,
                                             const Fingerprint& key,
                                             SolveSource source) const {
  SolveResponse response;
  response.key = key;
  response.placement = all_local_placement(request.user.graph.num_nodes());
  response.source = source;
  response.degraded = true;
  return response;
}

Result<SolveResponse> SolveService::solve(const SolveRequest& request) {
  const Stopwatch timer;
  mec::MecSystem system;
  system.params = request.params;
  system.users.push_back(request.user);
  if (!system.valid())
    return Error("invalid solve request (shape or parameter check failed)");

  requests_.fetch_add(1, std::memory_order_relaxed);
  MECOFF_COUNTER_ADD("serve.solve.requests", 1);
  // The injector's clock is the request sequence: every request that
  // reaches admission ticks it, shed and drained ones included. Its
  // sequence number doubles as the assigned correlation id, so ids
  // match the injector's "req <seq>" trace lines and replay exactly.
  std::uint64_t request_id = request.request_id;
  if (options_.injector != nullptr) {
    const std::uint64_t seq = options_.injector->begin_request();
    if (request_id == 0) request_id = seq;
  }
  if (request_id == 0)
    request_id = next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;

  // Drain mode: answer immediately, touch nothing shared. In-flight
  // requests keep running; nothing new starts.
  if (draining()) {
    drained_.fetch_add(1, std::memory_order_relaxed);
    MECOFF_COUNTER_ADD("serve.solve.drained", 1);
    SolveResponse response =
        degrade_response(request, Fingerprint{}, SolveSource::kShed);
    finish(response, request_id, timer.elapsed_seconds());
    return response;
  }

  // Admission control BEFORE fingerprinting or touching the cache: a
  // shed request must cost O(1), that is the point of shedding.
  const std::size_t limit = admission_limit_.load(std::memory_order_relaxed);
  const std::size_t admitted =
      in_flight_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (admitted > limit) {
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    shed_.fetch_add(1, std::memory_order_relaxed);
    MECOFF_COUNTER_ADD("serve.solve.shed", 1);
    SolveResponse response =
        degrade_response(request, Fingerprint{}, SolveSource::kShed);
    finish(response, request_id, timer.elapsed_seconds());
    return response;
  }
  // Admitted: the slot taken above is returned however solve() exits.
  const AdmittedSlot slot(in_flight_);

  FingerprintBuilder keyed(config_seed_);
  // Continue the config digest with the request content: same app +
  // params + config ⇒ same key.
  const Fingerprint content = fingerprint_request(request.user, request.params);
  keyed.add_u64(content.hi);
  keyed.add_u64(content.lo);
  const Fingerprint key = keyed.digest();

  // Resolve the budget once; it flows through every stage below.
  const double budget = request.deadline_seconds >= 0.0
                            ? request.deadline_seconds
                            : options_.default_deadline_seconds;

  // A rider spends at most hedge_fraction of its budget parked behind
  // an in-flight owner; negative = wait as long as it takes.
  double wait_budget = -1.0;
  if (budget >= 0.0) {
    wait_budget = std::max(
        0.0, budget * options_.hedge_fraction - timer.elapsed_seconds());
  }

  SolveResponse response;
  response.key = key;
  SchemeCache::Lookup lookup = cache_.acquire(key, wait_budget, request_id);
  switch (lookup.outcome) {
    case SchemeCache::Outcome::kHit:
      response.placement = std::move(lookup.placement);
      response.source = SolveSource::kCacheHit;
      response.served_by_request_id = lookup.owner_request_id;
      MECOFF_COUNTER_ADD("serve.solve.cache_hits", 1);
      break;
    case SchemeCache::Outcome::kCoalesced:
      response.placement = std::move(lookup.placement);
      response.source = SolveSource::kCoalesced;
      response.served_by_request_id = lookup.owner_request_id;
      MECOFF_COUNTER_ADD("serve.solve.coalesced", 1);
      break;
    case SchemeCache::Outcome::kMiss:
    case SchemeCache::Outcome::kTimeout: {
      // One cold solve, run by the entry's owner (kMiss) or by a rider
      // whose owner blew its wait budget (kTimeout). The rider HEDGES:
      // a duplicate solve on ANOTHER shard (offset 1 rotates past the
      // owner's). Only the owner holds the cache entry, so only it
      // counts the miss and publishes; `entry` abandons on every other
      // exit, and a hedge neither publishes nor abandons — the stalled
      // owner still completes its own protocol.
      const bool owner = lookup.outcome == SchemeCache::Outcome::kMiss;
      if (owner) MECOFF_COUNTER_ADD("serve.solve.cache_misses", 1);
      OwnedEntry entry(cache_, key, owner);
      const double remaining =
          budget >= 0.0 ? budget - timer.elapsed_seconds() : -1.0;
      // Budget spent before the solve could start, or no shard alive.
      bool expired = budget >= 0.0 && remaining <= 0.0;
      bool degraded = false;
      if (!expired) {
        try {
          response.placement = run_cold_solve(
              request, key, remaining, /*shard_offset=*/owner ? 0 : 1,
              request_id, degraded, expired);
        } catch (...) {
          // Counted once, as failed, so every request still lands in
          // one outcome; `entry` hands an owner's solve to a rider.
          failed_.fetch_add(1, std::memory_order_relaxed);
          MECOFF_COUNTER_ADD("serve.solve.failed", 1);
          throw;
        }
      }
      if (expired) {
        deadline_degraded_.fetch_add(1, std::memory_order_relaxed);
        MECOFF_COUNTER_ADD("serve.solve.deadline_degraded", 1);
        response = degrade_response(request, key, SolveSource::kDeadlineDegraded);
        break;
      }
      solved_.fetch_add(1, std::memory_order_relaxed);
      response.source = SolveSource::kSolved;
      if (!owner) {
        hedged_.fetch_add(1, std::memory_order_relaxed);
        MECOFF_COUNTER_ADD("serve.solve.hedged", 1);
        response.source = SolveSource::kHedged;
      }
      response.degraded = degraded;
      if (degraded) {
        // Serve it, count it, but never cache it: a deadline-truncated
        // scheme must not outlive the overload that produced it.
        degraded_.fetch_add(1, std::memory_order_relaxed);
        MECOFF_COUNTER_ADD("serve.solve.degraded", 1);
      } else if (owner && !(options_.injector != nullptr &&
                            options_.injector->steal_publish())) {
        // A stolen publish is the injected "result lost on the way
        // back": the requester still gets its full-quality placement,
        // but the cache never sees it — one rider is promoted and
        // re-solves.
        entry.publish(response.placement);
      }
      break;
    }
  }

  finish(response, request_id, timer.elapsed_seconds());
  return response;
}

std::vector<mec::Placement> SolveService::run_cold_solve(
    const SolveRequest& request, const Fingerprint& key,
    double remaining_budget_seconds, std::size_t shard_offset,
    std::uint64_t request_id, bool& degraded, bool& no_shard_alive) {
  // Shard selection honors injected kills: start from the fingerprint
  // shard (rotated by shard_offset for hedges) and take the first
  // alive one. A kill stops NEW dispatches; solves already running on
  // a killed shard complete — the same drain semantics real worker
  // loss has.
  const std::size_t shards = options_.shards;
  std::size_t shard = (static_cast<std::size_t>(key.lo) + shard_offset) % shards;
  if (options_.injector != nullptr && options_.injector->shard_killed(shard)) {
    std::size_t probes = 1;
    while (probes < shards &&
           options_.injector->shard_killed((shard + probes) % shards))
      ++probes;
    if (probes == shards) {
      no_shard_alive = true;
      return all_local_placement(request.user.graph.num_nodes());
    }
    shard = (shard + probes) % shards;
    shard_failovers_.fetch_add(1, std::memory_order_relaxed);
    MECOFF_COUNTER_ADD("serve.solve.shard_failovers", 1);
  }

  // Injected per-shard latency, bounded by the remaining budget so a
  // scripted stall can slow a request but never outlast its deadline
  // by more than the sleep quantum.
  double injected = options_.injector != nullptr
                        ? options_.injector->injected_latency_seconds(shard)
                        : 0.0;
  if (remaining_budget_seconds >= 0.0)
    injected = std::min(injected, remaining_budget_seconds);

  auto solve_now = [this, &request, &degraded, remaining_budget_seconds,
                    injected, request_id] {
    // The scope rides whichever thread executes the solve (pool worker
    // or caller), so the flight recorder and the mec.solve.latency
    // exemplar see this request's id. The injected stall stays inside
    // it: the slowed request is the one the exemplar should name.
    const obs::RequestIdScope id_scope(request_id);
    if (injected > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(injected));
    }
    mec::PipelineOptions solver = options_.solver;
    solver.pool = options_.pool;
    solver.identical_user_period = 0;  // superseded by the cache
    // Tighten the solver deadline to the remaining budget (minus the
    // injected stall we just paid). The solver's own fallback chain
    // turns an expired budget into a degraded-but-valid scheme.
    if (remaining_budget_seconds >= 0.0) {
      const double solver_budget =
          std::max(0.0, remaining_budget_seconds - injected);
      if (solver.deadline.unlimited() ||
          solver_budget < solver.deadline.seconds)
        solver.deadline.seconds = solver_budget;
    }
    mec::PipelineOffloader offloader(solver);
    mec::MecSystem system;
    system.params = request.params;
    system.users.push_back(request.user);
    mec::OffloadingScheme scheme = offloader.solve(system);
    const auto& stats = offloader.last_stats();
    degraded = stats.degraded() || stats.deadline_expired;
    return std::move(scheme.placement.front());
  };

  // One pool task per cold solve; every parallel_for inside it runs
  // inline on that worker. The calling thread is external (threading
  // contract), so a plain future wait is correct — and if the contract
  // is violated and we ARE on a pool worker, solving inline is the
  // safe degradation.
  parallel::ThreadPool* pool = options_.pool;
  if (pool == nullptr || pool->in_worker_thread()) return solve_now();
  return pool->submit(std::move(solve_now)).get();
}

void SolveService::finish(SolveResponse& response, std::uint64_t request_id,
                          double latency_seconds) {
  response.request_id = request_id;
  // Hit/coalesced responses already carry the owner's id; every other
  // source (solved, hedged, the degrade fallbacks) was produced by this
  // very request.
  if (response.source != SolveSource::kCacheHit &&
      response.source != SolveSource::kCoalesced)
    response.served_by_request_id = request_id;
  response.latency_seconds = latency_seconds;
  MECOFF_QUANTILES_RECORD_ID("serve.solve.latency", latency_seconds,
                             request_id);
}

bool SolveService::await_idle(double timeout_seconds) const {
  const Stopwatch timer;
  for (;;) {
    if (in_flight_.load(std::memory_order_acquire) == 0) return true;
    if (timer.elapsed_seconds() > timeout_seconds) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

SolveService::Stats SolveService::stats() const {
  Stats out;
  out.requests = requests_.load(std::memory_order_relaxed);
  out.solved = solved_.load(std::memory_order_relaxed);
  out.shed = shed_.load(std::memory_order_relaxed);
  out.degraded = degraded_.load(std::memory_order_relaxed);
  out.hedged = hedged_.load(std::memory_order_relaxed);
  out.deadline_degraded = deadline_degraded_.load(std::memory_order_relaxed);
  out.drained = drained_.load(std::memory_order_relaxed);
  out.shard_failovers = shard_failovers_.load(std::memory_order_relaxed);
  out.failed = failed_.load(std::memory_order_relaxed);
  out.cache = cache_.stats();
  out.cache_hits = out.cache.hits;
  out.coalesced = out.cache.coalesced;
  return out;
}

}  // namespace mecoff::serve
