#include "serve/solve_service.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <thread>
#include <utility>

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
Fingerprint fingerprint_solver_config(const SolveServiceOptions& service) {
  const mec::PipelineOptions& options = service.solver;
  FingerprintBuilder fp;
  fp.add_u64(0xC0);  // config section tag
  fp.add_double(options.propagation.coupling_threshold);
  fp.add_double(options.propagation.min_update_rate);
  fp.add_u64(options.propagation.max_rounds);
  fp.add_u64(static_cast<std::uint64_t>(options.propagation.policy));
  fp.add_u64(static_cast<std::uint64_t>(options.backend));
  fp.add_u64(static_cast<std::uint64_t>(options.spectral.fiedler.backend));
  fp.add_double(options.spectral.fiedler.tolerance);
  fp.add_u64(options.spectral.fiedler.seed);
  fp.add_u64(options.spectral.fiedler.max_subspace);
  fp.add_u64(options.spectral.fiedler.max_iterations);
  // The SpMV summation order and the warm restart size can both move a
  // placement (different rounding, different local optimum), so they
  // separate keys; collect_fiedler_vectors is artifact retention only
  // and stays out.
  fp.add_u64(
      static_cast<std::uint64_t>(options.spectral.fiedler.spmv_kernel));
  fp.add_u64(options.spectral.fiedler.warm_subspace);
  fp.add_u64(static_cast<std::uint64_t>(options.spectral.split));
  fp.add_u64(static_cast<std::uint64_t>(options.maxflow.strategy));
  fp.add_u64(options.maxflow.num_pairs);
  fp.add_u64(options.maxflow.seed);
  fp.add_u64(options.kl.max_passes);
  fp.add_bool(options.kl.exact_pair_selection);
  fp.add_u64(options.kl.candidate_limit);
  fp.add_u64(options.kl.seed);
  fp.add_u64(options.greedy.max_moves);
  fp.add_double(options.greedy.energy_weight);
  fp.add_double(options.greedy.time_weight);
  fp.add_bool(options.greedy.enable_group_moves);
  fp.add_bool(options.anchor_initial_parts);
  // Warm re-solve may publish a different (never worse) local optimum
  // for the same request, so the mode is part of the configuration.
  fp.add_bool(service.warm_resolve);
  return fp.digest();
}

/// The shed fallback: everything on the device. Valid for any request
/// (pinned nodes are local by definition) and costs nothing to build —
/// the serving twin of the solver's terminal all-remote fallback.
std::vector<mec::Placement> all_local_placement(std::size_t num_nodes) {
  return std::vector<mec::Placement>(num_nodes, mec::Placement::kLocal);
}

}  // namespace

SolveService::SolveService(SolveServiceOptions options)
    : options_(std::move(options)),
      config_seed_(fingerprint_solver_config(options_)),
      cache_(options_.cache),
      admission_limit_(options_.max_in_flight) {
  if (options_.shards == 0) options_.shards = 1;
  if (options_.hedge_fraction <= 0.0 || options_.hedge_fraction > 1.0)
    options_.hedge_fraction = 0.5;
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

  // Drain mode: answer immediately, touch nothing shared. In-flight
  // requests keep running; nothing new starts.
  if (draining()) {
    drained_.fetch_add(1, std::memory_order_relaxed);
    MECOFF_COUNTER_ADD("serve.solve.drained", 1);
    SolveResponse response = degrade_response(request, key, SolveSource::kShed);
    finish(response, request_id, timer.elapsed_seconds(),
           /*was_admitted=*/false);
    return response;
  }

  // Admission control BEFORE touching the cache: a shed request must
  // cost O(1), that is the point of shedding. Brownout first (it reads
  // the pre-increment occupancy), then the legacy hard cap.
  const std::size_t limit = admission_limit_.load(std::memory_order_relaxed);
  const std::size_t occupancy = in_flight_.load(std::memory_order_relaxed);
  if (options_.brownout.enabled && brownout_shed_decision(occupancy)) {
    brownout_shed_.fetch_add(1, std::memory_order_relaxed);
    MECOFF_COUNTER_ADD("serve.solve.brownout_shed", 1);
    SolveResponse response = degrade_response(request, key, SolveSource::kShed);
    finish(response, request_id, timer.elapsed_seconds(),
           /*was_admitted=*/false);
    return response;
  }
  const std::size_t admitted =
      in_flight_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (admitted > limit) {
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    shed_.fetch_add(1, std::memory_order_relaxed);
    MECOFF_COUNTER_ADD("serve.solve.shed", 1);
    SolveResponse response = degrade_response(request, key, SolveSource::kShed);
    finish(response, request_id, timer.elapsed_seconds(),
           /*was_admitted=*/false);
    return response;
  }

  // A rider spends at most hedge_fraction of its budget parked behind
  // an in-flight owner; negative = wait as long as it takes.
  double wait_budget = -1.0;
  if (budget >= 0.0) {
    wait_budget = std::max(
        0.0, budget * options_.hedge_fraction - timer.elapsed_seconds());
  }

  SolveResponse response;
  response.key = key;
  // Near-miss machinery only runs when warm re-solve is on: the cold
  // configuration takes the exact acquire() path the seed had.
  SchemeCache::WarmHint hint;
  Fingerprint topo_key;
  if (options_.warm_resolve) topo_key = fingerprint_topology(request.user);
  SchemeCache::Lookup lookup =
      options_.warm_resolve
          ? cache_.acquire(key, wait_budget, topo_key, &hint, request_id)
          : cache_.acquire(key, wait_budget, Fingerprint{}, nullptr,
                           request_id);
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
    case SchemeCache::Outcome::kTimeout: {
      // The owner blew this rider's wait budget: hedge a duplicate
      // solve on ANOTHER shard (offset 1 rotates past the owner's).
      // The rider holds no cache ownership — no publish, no abandon;
      // the stalled owner still completes its own protocol.
      const double remaining =
          budget >= 0.0 ? budget - timer.elapsed_seconds() : -1.0;
      if (budget >= 0.0 && remaining <= 0.0) {
        deadline_degraded_.fetch_add(1, std::memory_order_relaxed);
        MECOFF_COUNTER_ADD("serve.solve.deadline_degraded", 1);
        response = degrade_response(request, key, SolveSource::kDeadlineDegraded);
        break;
      }
      bool degraded = false;
      bool no_shard_alive = false;
      response.placement = run_cold_solve(request, key, remaining,
                                          /*shard_offset=*/1, request_id,
                                          degraded, no_shard_alive);
      if (no_shard_alive) {
        deadline_degraded_.fetch_add(1, std::memory_order_relaxed);
        MECOFF_COUNTER_ADD("serve.solve.deadline_degraded", 1);
        response = degrade_response(request, key, SolveSource::kDeadlineDegraded);
        break;
      }
      solved_.fetch_add(1, std::memory_order_relaxed);
      hedged_.fetch_add(1, std::memory_order_relaxed);
      MECOFF_COUNTER_ADD("serve.solve.hedged", 1);
      response.source = SolveSource::kHedged;
      response.degraded = degraded;
      if (degraded) {
        degraded_.fetch_add(1, std::memory_order_relaxed);
        MECOFF_COUNTER_ADD("serve.solve.degraded", 1);
      }
      break;
    }
    case SchemeCache::Outcome::kMiss: {
      MECOFF_COUNTER_ADD("serve.solve.cache_misses", 1);
      const double remaining =
          budget >= 0.0 ? budget - timer.elapsed_seconds() : -1.0;
      if (budget >= 0.0 && remaining <= 0.0) {
        // Budget spent before the solve could start. We still OWN the
        // cache entry — release it before degrading.
        cache_.abandon(key);
        deadline_degraded_.fetch_add(1, std::memory_order_relaxed);
        MECOFF_COUNTER_ADD("serve.solve.deadline_degraded", 1);
        response = degrade_response(request, key, SolveSource::kDeadlineDegraded);
        break;
      }
      bool degraded = false;
      bool no_shard_alive = false;
      const bool warm_armed =
          options_.warm_resolve && !hint.placement.empty();
      std::vector<linalg::Vec> artifacts;
      std::size_t warm_rejects = 0;
      try {
        response.placement = run_cold_solve(
            request, key, remaining,
            /*shard_offset=*/0, request_id, degraded, no_shard_alive,
            warm_armed ? &hint : nullptr,
            options_.warm_resolve ? &artifacts : nullptr, &warm_rejects);
      } catch (...) {
        // Never strand riders: hand the solve to one of them (or clear
        // the entry) before propagating.
        cache_.abandon(key);
        in_flight_.fetch_sub(1, std::memory_order_acq_rel);
        throw;
      }
      if (no_shard_alive) {
        cache_.abandon(key);
        deadline_degraded_.fetch_add(1, std::memory_order_relaxed);
        MECOFF_COUNTER_ADD("serve.solve.deadline_degraded", 1);
        response = degrade_response(request, key, SolveSource::kDeadlineDegraded);
        break;
      }
      solved_.fetch_add(1, std::memory_order_relaxed);
      response.source = SolveSource::kSolved;
      response.degraded = degraded;
      if (options_.warm_resolve) {
        if (warm_armed) {
          warm_hits_.fetch_add(1, std::memory_order_relaxed);
          MECOFF_COUNTER_ADD("serve.solve.warm_hits", 1);
        } else {
          warm_misses_.fetch_add(1, std::memory_order_relaxed);
          MECOFF_COUNTER_ADD("serve.solve.warm_misses", 1);
        }
        if (warm_rejects > 0) {
          warm_vector_rejects_.fetch_add(warm_rejects,
                                         std::memory_order_relaxed);
          MECOFF_COUNTER_ADD("serve.solve.warm_vector_rejects",
                             warm_rejects);
        }
      }
      const bool publish_stolen = !degraded && options_.injector != nullptr &&
                                  options_.injector->steal_publish();
      if (degraded) {
        // Serve it, count it, but never cache it: a deadline-truncated
        // scheme must not outlive the overload that produced it.
        degraded_.fetch_add(1, std::memory_order_relaxed);
        MECOFF_COUNTER_ADD("serve.solve.degraded", 1);
        cache_.abandon(key);
      } else if (publish_stolen) {
        // Injected "result lost on the way back": the requester still
        // gets its full-quality placement, but the cache never sees it
        // — one rider is promoted and re-solves.
        cache_.abandon(key);
      } else if (options_.warm_resolve) {
        // Full-quality results carry their Fiedler vectors into the
        // cache so later near-miss requests can warm-start from them.
        cache_.publish(key, response.placement, topo_key,
                       std::move(artifacts));
      } else {
        cache_.publish(key, response.placement);
      }
      break;
    }
  }

  finish(response, request_id, timer.elapsed_seconds(),
         /*was_admitted=*/true);
  return response;
}

std::vector<mec::Placement> SolveService::run_cold_solve(
    const SolveRequest& request, const Fingerprint& key,
    double remaining_budget_seconds, std::size_t shard_offset,
    std::uint64_t request_id, bool& degraded, bool& no_shard_alive,
    const SchemeCache::WarmHint* warm_hint,
    std::vector<linalg::Vec>* artifacts_out,
    std::size_t* warm_rejects_out) {
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
                    injected, request_id, warm_hint, artifacts_out,
                    warm_rejects_out] {
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
    // Retain artifacts whenever the caller wants to republish them
    // (warm mode), hint or no hint — every full-quality solve becomes
    // a potential donor.
    solver.collect_fiedler_vectors = artifacts_out != nullptr;
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
    mec::OffloadingScheme scheme;
    if (warm_hint != nullptr) {
      mec::PipelineOffloader::WarmStart warm;
      warm.scheme.placement.push_back(warm_hint->placement);
      warm.fiedler_vectors.push_back(warm_hint->fiedler_vectors);
      scheme = offloader.solve(system, &warm);
      if (warm_rejects_out != nullptr)
        *warm_rejects_out = offloader.last_stats().warm_fiedler_rejected;
    } else {
      scheme = offloader.solve(system);
    }
    const auto& stats = offloader.last_stats();
    degraded = stats.degraded() || stats.deadline_expired;
    if (artifacts_out != nullptr &&
        !offloader.last_artifacts().fiedler_vectors.empty())
      *artifacts_out = offloader.last_artifacts().fiedler_vectors.front();
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

bool SolveService::brownout_shed_decision(std::size_t in_flight_now) {
  const BrownoutOptions& cfg = options_.brownout;
  const MutexLock lock(brownout_mutex_);
  // Tier from the rising in-flight thresholds, bumped one step when the
  // sliding p99 is over the configured ceiling.
  int tier = 0;
  if (in_flight_now >= cfg.tier1_in_flight) tier = 1;
  if (in_flight_now >= cfg.tier2_in_flight) tier = 2;
  if (in_flight_now >= cfg.tier3_in_flight) tier = 3;
  if (cfg.p99_bump_seconds > 0.0 && p99_seconds_ > cfg.p99_bump_seconds)
    tier = std::min(3, tier + 1);

  if (tier > brownout_tier_) {
    brownout_tier_ = tier;
    MECOFF_GAUGE_SET("serve.solve.brownout_tier",
                     static_cast<double>(brownout_tier_));
  } else if (tier < brownout_tier_) {
    // Hysteresis: leave the current tier only once occupancy has
    // fallen well below its entry threshold, so the controller does
    // not flap at the boundary under steady load.
    const std::size_t enter = brownout_tier_ == 1   ? cfg.tier1_in_flight
                              : brownout_tier_ == 2 ? cfg.tier2_in_flight
                                                    : cfg.tier3_in_flight;
    const double exit_below =
        static_cast<double>(enter) * cfg.exit_fraction;
    if (static_cast<double>(in_flight_now) < exit_below) {
      brownout_tier_ = tier;
      MECOFF_GAUGE_SET("serve.solve.brownout_tier",
                       static_cast<double>(brownout_tier_));
    }
  }

  if (brownout_tier_ == 0) return false;
  if (brownout_tier_ >= 3) return true;
  // Deterministic fractional shed by admission counter: tier 1 sheds
  // every 4th candidate, tier 2 every 2nd. No RNG — replays match.
  const std::uint64_t candidate = brownout_candidates_++;
  const std::uint64_t period = brownout_tier_ == 1 ? 4 : 2;
  return candidate % period == 0;
}

void SolveService::finish(SolveResponse& response, std::uint64_t request_id,
                          double latency_seconds, bool was_admitted) {
  response.request_id = request_id;
  // Hit/coalesced responses already carry the owner's id; every other
  // source (solved, hedged, the degrade fallbacks) was produced by this
  // very request.
  if (response.source != SolveSource::kCacheHit &&
      response.source != SolveSource::kCoalesced)
    response.served_by_request_id = request_id;
  if (was_admitted) {
    const std::size_t remaining =
        in_flight_.fetch_sub(1, std::memory_order_acq_rel) - 1;
    MECOFF_GAUGE_SET("serve.solve.in_flight", static_cast<double>(remaining));
  }
  response.latency_seconds = latency_seconds;
  MECOFF_QUANTILES_RECORD_ID("serve.solve.latency", latency_seconds,
                             request_id);
  {
    // Feed the brownout controller's own window (registry-independent,
    // works obs-off) and refresh the cached p99 every 32 completions —
    // the exact-sort query is too dear for every request.
    const MutexLock lock(brownout_mutex_);
    latency_window_.record(latency_seconds);
    if (++completions_ % 32 == 0) p99_seconds_ = latency_window_.quantile(0.99);
  }
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
  out.brownout_shed = brownout_shed_.load(std::memory_order_relaxed);
  out.shard_failovers = shard_failovers_.load(std::memory_order_relaxed);
  out.warm_hits = warm_hits_.load(std::memory_order_relaxed);
  out.warm_misses = warm_misses_.load(std::memory_order_relaxed);
  out.warm_vector_rejects =
      warm_vector_rejects_.load(std::memory_order_relaxed);
  {
    const MutexLock lock(brownout_mutex_);
    out.brownout_tier = brownout_tier_;
  }
  out.cache = cache_.stats();
  out.cache_hits = out.cache.hits;
  out.coalesced = out.cache.coalesced;
  return out;
}

}  // namespace mecoff::serve
