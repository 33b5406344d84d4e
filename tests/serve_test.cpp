// Tests for the online solve service: canonical request fingerprints,
// the single-flight scheme cache (bounded rides included), the
// deterministic FaultInjector, and SolveService end-to-end (cache hits
// bit-identical to cold solves, coalescing under concurrency,
// admission-control shedding, deadline budgets with hedged retries,
// and graceful drain).
//
// Everything here observes behavior through return values and
// SolveService::stats() (plain atomics), so the suite runs identically
// with the obs facade compiled in or out.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "graph/weighted_graph.hpp"
#include "mec/model.hpp"
#include "mec/offloader.hpp"
#include "mec/scheme.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/fault_injector.hpp"
#include "serve/fingerprint.hpp"
#include "serve/scheme_cache.hpp"
#include "serve/solve_service.hpp"
#include "sim/fault_script.hpp"

namespace mecoff::serve {
namespace {

/// A small offloadable app: pinned UI node feeding a few heavy workers.
mec::UserApp make_app(double heavy_weight, std::size_t workers = 3) {
  graph::GraphBuilder builder;
  const graph::NodeId ui = builder.add_node(2.0);
  for (std::size_t w = 0; w < workers; ++w) {
    const graph::NodeId node =
        builder.add_node(heavy_weight + static_cast<double>(w));
    builder.add_edge(ui, node, 1.0 + static_cast<double>(w));
  }
  mec::UserApp user;
  user.graph = builder.build();
  user.unoffloadable.assign(user.graph.num_nodes(), false);
  user.unoffloadable[ui] = true;
  return user;
}

// ---- Fingerprints ---------------------------------------------------------

TEST(FingerprintTest, DeterministicAndSensitiveToContent) {
  const mec::SystemParams params;
  const mec::UserApp app = make_app(100.0);
  const Fingerprint a = fingerprint_request(app, params);
  const Fingerprint b = fingerprint_request(app, params);
  EXPECT_EQ(a, b);

  // Any content perturbation must move the key: a node weight...
  EXPECT_NE(fingerprint_request(make_app(101.0), params), a);
  // ...graph shape...
  EXPECT_NE(fingerprint_request(make_app(100.0, 4), params), a);
  // ...cost/channel parameters...
  mec::SystemParams slow = params;
  slow.bandwidth *= 0.5;
  EXPECT_NE(fingerprint_request(app, slow), a);
  // ...and pinning.
  mec::UserApp unpinned = app;
  unpinned.unoffloadable[0] = false;
  EXPECT_NE(fingerprint_request(unpinned, params), a);
}

TEST(FingerprintTest, EdgeOrderAndDirectionInvariant) {
  const mec::SystemParams params;
  graph::GraphBuilder forward;
  const auto fa = forward.add_node(1.0);
  const auto fb = forward.add_node(2.0);
  const auto fc = forward.add_node(3.0);
  forward.add_edge(fa, fb, 4.0);
  forward.add_edge(fb, fc, 5.0);

  graph::GraphBuilder shuffled;
  const auto sa = shuffled.add_node(1.0);
  const auto sb = shuffled.add_node(2.0);
  const auto sc = shuffled.add_node(3.0);
  shuffled.add_edge(sc, sb, 5.0);  // reversed direction, reversed order
  shuffled.add_edge(sb, sa, 4.0);

  mec::UserApp one;
  one.graph = forward.build();
  mec::UserApp two;
  two.graph = shuffled.build();
  EXPECT_EQ(fingerprint_request(one, params), fingerprint_request(two, params));
}

TEST(FingerprintTest, EmptyPinMaskEqualsExplicitAllFalse) {
  const mec::SystemParams params;
  mec::UserApp implicit = make_app(50.0);
  implicit.unoffloadable.clear();
  mec::UserApp explicit_mask = make_app(50.0);
  explicit_mask.unoffloadable.assign(explicit_mask.graph.num_nodes(), false);
  EXPECT_EQ(fingerprint_request(implicit, params),
            fingerprint_request(explicit_mask, params));
}

TEST(FingerprintTest, EmptyComponentsDistinctFromExplicit) {
  const mec::SystemParams params;
  mec::UserApp derived = make_app(50.0);
  derived.unoffloadable.clear();
  mec::UserApp declared = derived;
  declared.components.assign(declared.graph.num_nodes(), 0);
  EXPECT_NE(fingerprint_request(derived, params),
            fingerprint_request(declared, params));
}

TEST(FingerprintTest, NegativeZeroParamNormalized) {
  const mec::UserApp app = make_app(50.0);
  mec::SystemParams pos;
  pos.contention_factor = 0.0;
  mec::SystemParams neg;
  neg.contention_factor = -0.0;
  EXPECT_EQ(fingerprint_request(app, pos), fingerprint_request(app, neg));
}

TEST(FingerprintTest, SeededBuilderSeparatesConfigurations) {
  FingerprintBuilder base;
  base.add_u64(7);
  FingerprintBuilder seeded_a(Fingerprint{1, 2});
  seeded_a.add_u64(7);
  FingerprintBuilder seeded_b(Fingerprint{1, 3});
  seeded_b.add_u64(7);
  EXPECT_NE(base.digest(), seeded_a.digest());
  EXPECT_NE(seeded_a.digest(), seeded_b.digest());
}

TEST(FingerprintTest, EveryInputBitReachesBothDigests) {
  const std::vector<std::uint64_t> words = {0xA1, 250, 0x4059000000000000ULL,
                                            0xA2, 0, 1, 0xA6};
  const auto digest_of = [](const std::vector<std::uint64_t>& stream) {
    FingerprintBuilder builder;
    for (const std::uint64_t w : stream) builder.add_u64(w);
    return builder.digest();
  };
  const Fingerprint base = digest_of(words);

  // Each single-bit flip of one word moves both halves, and no two flips
  // share a digest.
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  for (int bit = 0; bit < 64; ++bit) {
    std::vector<std::uint64_t> flipped = words;
    flipped[2] ^= std::uint64_t{1} << bit;
    const Fingerprint f = digest_of(flipped);
    EXPECT_NE(f.hi, base.hi) << "bit " << bit;
    EXPECT_NE(f.lo, base.lo) << "bit " << bit;
    seen.insert({f.hi, f.lo});
  }
  EXPECT_EQ(seen.size(), 64u);

  // Under a bare (h ^ w) * p step a flip of bit 63 stays in bit 63, so
  // two of them cancel; here they must not.
  std::vector<std::uint64_t> twice = words;
  twice[1] ^= std::uint64_t{1} << 63;
  twice[4] ^= std::uint64_t{1} << 63;
  EXPECT_NE(digest_of(twice), base);
}

// ---- SchemeCache ----------------------------------------------------------

std::vector<mec::Placement> placement_of(std::size_t n, std::size_t remote) {
  std::vector<mec::Placement> p(n, mec::Placement::kLocal);
  for (std::size_t i = 0; i < remote && i < n; ++i)
    p[i] = mec::Placement::kRemote;
  return p;
}

TEST(SchemeCacheTest, MissPublishHitRoundTrip) {
  SchemeCache cache;
  const Fingerprint key{11, 22};

  SchemeCache::Lookup first = cache.acquire(key);
  EXPECT_EQ(first.outcome, SchemeCache::Outcome::kMiss);

  cache.publish(key, placement_of(5, 2));

  SchemeCache::Lookup second = cache.acquire(key);
  EXPECT_EQ(second.outcome, SchemeCache::Outcome::kHit);
  EXPECT_EQ(second.placement, placement_of(5, 2));

  const SchemeCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(SchemeCacheTest, AbandonedMissStartsCold) {
  SchemeCache cache;
  const Fingerprint key{3, 4};
  ASSERT_EQ(cache.acquire(key).outcome, SchemeCache::Outcome::kMiss);
  cache.abandon(key);  // no riders: entry vanishes
  EXPECT_EQ(cache.acquire(key).outcome, SchemeCache::Outcome::kMiss);
  cache.publish(key, placement_of(3, 1));
  EXPECT_EQ(cache.acquire(key).outcome, SchemeCache::Outcome::kHit);
}

TEST(SchemeCacheTest, LruEvictsLeastRecentlyUsedReadyEntry) {
  SchemeCache cache(SchemeCache::Options{.capacity = 2});
  const Fingerprint k1{1, 0}, k2{2, 0}, k3{3, 0};
  for (const Fingerprint& k : {k1, k2, k3}) {
    ASSERT_EQ(cache.acquire(k).outcome, SchemeCache::Outcome::kMiss);
    cache.publish(k, placement_of(4, k.hi % 4));
  }
  // Publishing k3 overflowed capacity 2; k1 was least recently used.
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.acquire(k2).outcome, SchemeCache::Outcome::kHit);
  EXPECT_EQ(cache.acquire(k3).outcome, SchemeCache::Outcome::kHit);
  // k1 must re-solve.
  EXPECT_EQ(cache.acquire(k1).outcome, SchemeCache::Outcome::kMiss);
  cache.abandon(k1);
}

TEST(SchemeCacheTest, HitRefreshesLruPosition) {
  SchemeCache cache(SchemeCache::Options{.capacity = 2});
  const Fingerprint k1{1, 0}, k2{2, 0}, k3{3, 0};
  for (const Fingerprint& k : {k1, k2}) {
    ASSERT_EQ(cache.acquire(k).outcome, SchemeCache::Outcome::kMiss);
    cache.publish(k, placement_of(4, 1));
  }
  // Touch k1 so k2 becomes the victim when k3 lands.
  ASSERT_EQ(cache.acquire(k1).outcome, SchemeCache::Outcome::kHit);
  ASSERT_EQ(cache.acquire(k3).outcome, SchemeCache::Outcome::kMiss);
  cache.publish(k3, placement_of(4, 1));
  EXPECT_EQ(cache.acquire(k1).outcome, SchemeCache::Outcome::kHit);
  EXPECT_EQ(cache.acquire(k2).outcome, SchemeCache::Outcome::kMiss);
  cache.abandon(k2);
}

TEST(SchemeCacheTest, SingleFlightRidersGetOwnersPlacement) {
  SchemeCache cache;
  const Fingerprint key{42, 7};
  ASSERT_EQ(cache.acquire(key).outcome, SchemeCache::Outcome::kMiss);

  constexpr std::size_t kRiders = 8;
  std::atomic<std::size_t> parked{0};
  std::vector<std::thread> threads;
  std::vector<SchemeCache::Lookup> results(kRiders);
  threads.reserve(kRiders);
  for (std::size_t i = 0; i < kRiders; ++i) {
    threads.emplace_back([&, i] {
      parked.fetch_add(1, std::memory_order_relaxed);
      results[i] = cache.acquire(key);  // blocks until publish
    });
  }
  // Let the riders reach the cv (best-effort; correctness does not
  // depend on the sleep, only the "no duplicate solve" accounting).
  while (parked.load(std::memory_order_relaxed) < kRiders)
    std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  cache.publish(key, placement_of(6, 3));
  for (std::thread& t : threads) t.join();

  for (const SchemeCache::Lookup& r : results) {
    EXPECT_EQ(r.outcome, SchemeCache::Outcome::kCoalesced);
    EXPECT_EQ(r.placement, placement_of(6, 3));
  }
  const SchemeCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);  // exactly ONE cold solve
  EXPECT_EQ(stats.coalesced, kRiders);
}

TEST(SchemeCacheTest, AbandonPromotesExactlyOneRider) {
  SchemeCache cache;
  const Fingerprint key{9, 9};
  ASSERT_EQ(cache.acquire(key).outcome, SchemeCache::Outcome::kMiss);

  constexpr std::size_t kRiders = 4;
  std::atomic<std::size_t> promoted{0};
  std::atomic<std::size_t> coalesced{0};
  std::vector<std::thread> threads;
  threads.reserve(kRiders);
  for (std::size_t i = 0; i < kRiders; ++i) {
    threads.emplace_back([&] {
      SchemeCache::Lookup r = cache.acquire(key);
      if (r.outcome == SchemeCache::Outcome::kMiss) {
        // This rider was promoted to owner after the abandon; it must
        // complete the flight so the remaining riders wake.
        promoted.fetch_add(1, std::memory_order_relaxed);
        cache.publish(key, placement_of(5, 5));
      } else {
        EXPECT_EQ(r.outcome, SchemeCache::Outcome::kCoalesced);
        EXPECT_EQ(r.placement, placement_of(5, 5));
        coalesced.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  cache.abandon(key);  // original owner gives up
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(promoted.load(), 1u);
  EXPECT_EQ(coalesced.load(), kRiders - 1);
}

// ---- SolveService ---------------------------------------------------------

TEST(SolveServiceTest, CacheHitIsBitIdenticalToColdSolve) {
  parallel::ThreadPool pool(4);
  SolveServiceOptions options;
  options.pool = &pool;
  SolveService service(options);

  SolveRequest request{make_app(150.0, 6), mec::SystemParams{}};

  // Reference: a direct PipelineOffloader run on the same single-user
  // system with the same (default) solver options.
  mec::MecSystem system;
  system.params = request.params;
  system.users.push_back(request.user);
  mec::PipelineOffloader reference;
  const std::vector<mec::Placement> expected =
      reference.solve(system).placement.front();

  const Result<SolveResponse> cold = service.solve(request);
  ASSERT_TRUE(cold.ok()) << cold.error().message;
  EXPECT_EQ(cold.value().source, SolveSource::kSolved);
  EXPECT_FALSE(cold.value().degraded);
  EXPECT_EQ(cold.value().placement, expected);

  const Result<SolveResponse> hot = service.solve(request);
  ASSERT_TRUE(hot.ok()) << hot.error().message;
  EXPECT_EQ(hot.value().source, SolveSource::kCacheHit);
  // The headline guarantee: byte-identical to the cold solve.
  EXPECT_EQ(hot.value().placement, expected);
  EXPECT_EQ(hot.value().key, cold.value().key);

  const SolveService::Stats stats = service.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.solved, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
}

TEST(SolveServiceTest, ConcurrentDuplicateStreamSolvesEachAppOnce) {
  parallel::ThreadPool pool(4);
  SolveServiceOptions options;
  options.pool = &pool;
  options.shards = 3;
  SolveService service(options);

  constexpr std::size_t kDistinct = 4;
  constexpr std::size_t kClients = 6;
  constexpr std::size_t kPerClient = 8;
  std::vector<SolveRequest> requests;
  std::vector<std::vector<mec::Placement>> expected;
  for (std::size_t a = 0; a < kDistinct; ++a) {
    requests.push_back(
        {make_app(120.0 + 10.0 * static_cast<double>(a), 4 + a),
         mec::SystemParams{}});
    mec::MecSystem system;
    system.params = requests.back().params;
    system.users.push_back(requests.back().user);
    mec::PipelineOffloader reference;
    expected.push_back(reference.solve(system).placement.front());
  }

  std::atomic<std::size_t> mismatches{0};
  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; i < kPerClient; ++i) {
        const std::size_t which = (c + i) % kDistinct;
        const Result<SolveResponse> r = service.solve(requests[which]);
        if (!r.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (r.value().placement != expected[which])
          mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0u);
  // EVERY response — solved, hit, or coalesced — is bit-identical to
  // the reference cold solve of its app.
  EXPECT_EQ(mismatches.load(), 0u);

  const SolveService::Stats stats = service.stats();
  EXPECT_EQ(stats.requests, kClients * kPerClient);
  // Single-flight + cache: exactly one cold solve per distinct app.
  EXPECT_EQ(stats.solved, kDistinct);
  EXPECT_EQ(stats.cache_hits + stats.coalesced,
            kClients * kPerClient - kDistinct);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.degraded, 0u);
}

TEST(SolveServiceTest, AdmissionLimitShedsToValidAllLocal) {
  SolveServiceOptions options;  // no pool: inline solves
  options.max_in_flight = 0;    // drain mode: shed everything
  SolveService service(options);

  SolveRequest request{make_app(200.0), mec::SystemParams{}};
  const Result<SolveResponse> r = service.solve(request);
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(r.value().source, SolveSource::kShed);
  EXPECT_TRUE(r.value().degraded);
  ASSERT_EQ(r.value().placement.size(), request.user.graph.num_nodes());
  for (const mec::Placement p : r.value().placement)
    EXPECT_EQ(p, mec::Placement::kLocal);

  // Shed responses must not pollute the cache.
  EXPECT_EQ(service.stats().cache.entries, 0u);
  EXPECT_EQ(service.stats().shed, 1u);

  // Raising the limit back up restores full service.
  service.set_admission_limit(SIZE_MAX);
  const Result<SolveResponse> full = service.solve(request);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value().source, SolveSource::kSolved);
  EXPECT_FALSE(full.value().degraded);
}

TEST(SolveServiceTest, ShedAndDrainedResponsesSkipTheFingerprint) {
  // Drain and both admission checks run before fingerprint_request, so
  // a shed costs O(1) and carries the zero key.
  SolveService service;  // no pool: inline solves
  const SolveRequest request{make_app(120.0), mec::SystemParams{}};
  const Result<SolveResponse> admitted = service.solve(request);
  ASSERT_TRUE(admitted.ok()) << admitted.error().message;
  EXPECT_NE(admitted.value().key, Fingerprint{});

  service.set_admission_limit(0);
  const Result<SolveResponse> shed = service.solve(request);
  ASSERT_TRUE(shed.ok()) << shed.error().message;
  EXPECT_EQ(shed.value().source, SolveSource::kShed);
  EXPECT_EQ(shed.value().key, Fingerprint{});

  service.set_admission_limit(SIZE_MAX);
  service.begin_drain();
  const Result<SolveResponse> drained = service.solve(request);
  ASSERT_TRUE(drained.ok()) << drained.error().message;
  EXPECT_EQ(drained.value().source, SolveSource::kShed);
  EXPECT_EQ(drained.value().key, Fingerprint{});
  EXPECT_EQ(service.stats().shed, 1u);
  EXPECT_EQ(service.stats().drained, 1u);
}

TEST(SolveServiceTest, MalformedRequestIsAnErrorNotACrash) {
  SolveService service;
  SolveRequest bad{make_app(100.0), mec::SystemParams{}};
  bad.user.unoffloadable.resize(1);  // shape mismatch vs graph
  EXPECT_FALSE(service.solve(bad).ok());

  SolveRequest bad_params{make_app(100.0), mec::SystemParams{}};
  bad_params.params.bandwidth = -1.0;
  EXPECT_FALSE(service.solve(bad_params).ok());

  EXPECT_EQ(service.stats().solved, 0u);
}

// ---- SchemeCache bounded rides --------------------------------------------

TEST(SchemeCacheTest, ZeroWaitRiderTimesOutWithoutTakingOwnership) {
  SchemeCache cache;
  const Fingerprint key{7, 7};
  ASSERT_EQ(cache.acquire(key).outcome, SchemeCache::Outcome::kMiss);

  // max_wait 0 refuses to park: deterministic timeout, same thread, no
  // deadlock — and NO ownership transfer (the rider must not publish
  // or abandon).
  const SchemeCache::Lookup timed = cache.acquire(key, 0.0);
  EXPECT_EQ(timed.outcome, SchemeCache::Outcome::kTimeout);
  EXPECT_TRUE(timed.placement.empty());
  EXPECT_EQ(cache.stats().timeouts, 1u);

  // The original owner's protocol is undisturbed by the timed-out
  // rider: its publish lands and the entry becomes a normal hit.
  cache.publish(key, placement_of(4, 2));
  const SchemeCache::Lookup hit = cache.acquire(key);
  EXPECT_EQ(hit.outcome, SchemeCache::Outcome::kHit);
  EXPECT_EQ(hit.placement, placement_of(4, 2));
}

TEST(SchemeCacheTest, BoundedRiderGivesUpWhileUnboundedRiderRides) {
  SchemeCache cache;
  const Fingerprint key{8, 8};
  ASSERT_EQ(cache.acquire(key).outcome, SchemeCache::Outcome::kMiss);

  SchemeCache::Lookup bounded;
  SchemeCache::Lookup unbounded;
  std::thread impatient([&] { bounded = cache.acquire(key, 0.01); });
  std::thread patient([&] { unbounded = cache.acquire(key); });
  // Publish long after the bounded rider's 10 ms budget has lapsed.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  cache.publish(key, placement_of(5, 3));
  impatient.join();
  patient.join();

  EXPECT_EQ(bounded.outcome, SchemeCache::Outcome::kTimeout);
  EXPECT_TRUE(bounded.placement.empty());
  EXPECT_EQ(unbounded.outcome, SchemeCache::Outcome::kCoalesced);
  EXPECT_EQ(unbounded.placement, placement_of(5, 3));

  const SchemeCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.timeouts, 1u);
  EXPECT_EQ(stats.coalesced, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(SchemeCacheTest, StatsTrackOldestReadyEntryAge) {
  SchemeCache cache;
  EXPECT_EQ(cache.stats().oldest_entry_age_seconds, 0.0);  // empty
  const Fingerprint key{6, 6};
  ASSERT_EQ(cache.acquire(key).outcome, SchemeCache::Outcome::kMiss);
  EXPECT_EQ(cache.stats().oldest_entry_age_seconds, 0.0);  // not ready
  cache.publish(key, placement_of(3, 1));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(cache.stats().oldest_entry_age_seconds, 0.01);
}

// ---- FaultInjector --------------------------------------------------------

TEST(FaultInjectorTest, RequestSequenceScheduleFiresDeterministically) {
  FaultInjector::Options opts;
  opts.shards = 2;
  opts.latency_scale_seconds = 0.1;
  sim::FaultScript script;
  script.crash_server(2, 0)
      .degrade_link(3, 1, 0.5)
      .disconnect_user(4, 0)
      .recover_server(5, 0);

  FaultInjector a(opts);
  a.arm(script);
  EXPECT_EQ(a.stats().events_pending, 4u);

  EXPECT_EQ(a.begin_request(), 1u);
  EXPECT_FALSE(a.shard_killed(0));
  EXPECT_EQ(a.begin_request(), 2u);  // crash 0 fires exactly here
  EXPECT_TRUE(a.shard_killed(0));
  EXPECT_EQ(a.stats().shards_killed, 1u);  // one of two: not all dead
  EXPECT_EQ(a.begin_request(), 3u);  // degrade 1 @ severity 0.5
  EXPECT_DOUBLE_EQ(a.injected_latency_seconds(1), 0.05);
  EXPECT_EQ(a.injected_latency_seconds(0), 0.0);
  EXPECT_EQ(a.begin_request(), 4u);  // disconnect arms ONE publish steal
  EXPECT_TRUE(a.steal_publish());
  EXPECT_FALSE(a.steal_publish());  // one-shot
  EXPECT_EQ(a.begin_request(), 5u);  // recover 0
  EXPECT_FALSE(a.shard_killed(0));

  const FaultInjector::Stats stats = a.stats();
  EXPECT_EQ(stats.requests_seen, 5u);
  EXPECT_EQ(stats.events_applied, 4u);
  EXPECT_EQ(stats.events_pending, 0u);
  EXPECT_EQ(stats.publish_failures, 1u);
  EXPECT_EQ(stats.shards_killed, 0u);
  EXPECT_EQ(a.trace().size(), 4u);

  // Replay: the same (script, request stream) pair yields the exact
  // same applied-event trace — the property the soak trajectory and
  // the committed baselines rest on.
  FaultInjector b(opts);
  b.arm(script);
  for (int i = 0; i < 5; ++i) (void)b.begin_request();
  EXPECT_EQ(a.trace(), b.trace());
}

TEST(FaultInjectorTest, TargetsFoldModuloShards) {
  FaultInjector::Options opts;
  opts.shards = 2;
  FaultInjector injector(opts);
  sim::FaultScript script;
  script.crash_server(1, 5);  // 5 % 2 == shard 1
  injector.arm(script);
  (void)injector.begin_request();
  EXPECT_TRUE(injector.shard_killed(1));
  EXPECT_TRUE(injector.shard_killed(3));  // queries fold too
  EXPECT_FALSE(injector.shard_killed(0));
}

TEST(FaultInjectorTest, ConstructorRejectsZeroShards) {
  FaultInjector::Options no_shards;
  no_shards.shards = 0;
  EXPECT_THROW(FaultInjector{no_shards}, PreconditionError);
  FaultInjector::Options one_shard;
  one_shard.shards = 1;
  EXPECT_NO_THROW(FaultInjector{one_shard});
}

TEST(FaultInjectorTest, ArmResetsSequenceAndStandingFaults) {
  FaultInjector::Options opts;
  opts.shards = 2;
  opts.latency_scale_seconds = 0.1;
  FaultInjector injector(opts);
  sim::FaultScript script;
  script.crash_server(1, 0).degrade_link(1, 1, 0.5).disconnect_user(1, 0);
  injector.arm(script);
  (void)injector.begin_request();
  ASSERT_TRUE(injector.shard_killed(0));
  ASSERT_DOUBLE_EQ(injector.injected_latency_seconds(1), 0.05);

  // Re-arming (here: with an empty script) clears every standing
  // fault, the pending publish steal, the counters and the trace.
  injector.arm(sim::FaultScript{});
  const FaultInjector::Stats stats = injector.stats();
  EXPECT_EQ(stats.requests_seen, 0u);
  EXPECT_EQ(stats.events_applied, 0u);
  EXPECT_EQ(stats.events_pending, 0u);
  EXPECT_EQ(stats.publish_failures, 0u);
  EXPECT_EQ(stats.shards_killed, 0u);
  EXPECT_FALSE(injector.shard_killed(0));
  EXPECT_EQ(injector.injected_latency_seconds(1), 0.0);
  EXPECT_FALSE(injector.steal_publish());
  EXPECT_TRUE(injector.trace().empty());
  EXPECT_EQ(injector.begin_request(), 1u);  // sequence restarted
}

// ---- Deadline budgets, hedging, faults, drain -----------------------------

/// One solve on its own thread, for tests that need a request in flight
/// while the test thread acts. GCC 12 reports a false
/// -Wfree-nonheap-object wherever a temporary Result<SolveResponse> is
/// moved from and destroyed, as std::async's future does; so the result
/// is built in place on the heap instead.
class BackgroundSolve {
 public:
  BackgroundSolve(SolveService& service, SolveRequest request)
      : thread_([this, &service, request = std::move(request)] {
          try {
            result_.reset(new Result<SolveResponse>(service.solve(request)));
          } catch (...) {
            error_ = std::current_exception();
          }
        }) {}
  BackgroundSolve(const BackgroundSolve&) = delete;
  BackgroundSolve& operator=(const BackgroundSolve&) = delete;
  ~BackgroundSolve() {
    if (thread_.joinable()) thread_.join();
  }

  /// Waits for the solve; rethrows what it threw.
  Result<SolveResponse> get() {
    thread_.join();
    if (error_) std::rethrow_exception(error_);
    return std::move(*result_);
  }

 private:
  std::unique_ptr<Result<SolveResponse>> result_;
  std::exception_ptr error_;
  std::thread thread_;  // last: it starts writing the members above
};

TEST(SolveServiceTest, ConstructorRejectsZeroShardsAndOutOfRangeHedge) {
  SolveServiceOptions no_shards;
  no_shards.shards = 0;
  EXPECT_THROW(SolveService{no_shards}, PreconditionError);
  for (const double hedge : {0.0, -0.1, 1.5,
                             std::numeric_limits<double>::quiet_NaN()}) {
    SolveServiceOptions options;
    options.hedge_fraction = hedge;
    EXPECT_THROW(SolveService{options}, PreconditionError) << hedge;
  }
  SolveServiceOptions edge;
  edge.shards = 1;
  edge.hedge_fraction = 1.0;
  EXPECT_NO_THROW(SolveService{edge});
}

TEST(SolveServiceTest, ZeroBudgetDegradesToValidAllLocalAndCachesNothing) {
  SolveService service;  // no pool: inline solves
  SolveRequest request{make_app(130.0, 4), mec::SystemParams{}};
  request.deadline_seconds = 0.0;

  const Result<SolveResponse> r = service.solve(request);
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(r.value().source, SolveSource::kDeadlineDegraded);
  EXPECT_TRUE(r.value().degraded);
  ASSERT_EQ(r.value().placement.size(), request.user.graph.num_nodes());
  for (const mec::Placement p : r.value().placement)
    EXPECT_EQ(p, mec::Placement::kLocal);

  // Budget exhaustion is never an error and never pollutes the cache.
  const SolveService::Stats stats = service.stats();
  EXPECT_EQ(stats.deadline_degraded, 1u);
  EXPECT_EQ(stats.solved, 0u);
  EXPECT_EQ(stats.cache.entries, 0u);

  // The same request without a budget cold-solves at full quality.
  SolveRequest unlimited = request;
  unlimited.deadline_seconds = -1.0;
  const Result<SolveResponse> full = service.solve(unlimited);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value().source, SolveSource::kSolved);
  EXPECT_FALSE(full.value().degraded);

  // The service default flows the same way when the request does not
  // carry its own budget.
  SolveServiceOptions strict;
  strict.default_deadline_seconds = 0.0;
  SolveService strict_service(strict);
  SolveRequest plain{make_app(130.0, 4), mec::SystemParams{}};
  const Result<SolveResponse> d = strict_service.solve(plain);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value().source, SolveSource::kDeadlineDegraded);
}

// An owner whose cold solve comes back degraded through the solver's
// own fallback chain serves it but must release the entry it owns: a
// stranded entry would turn the next identical request into a rider
// that times out and hedges.
TEST(SolveServiceTest, DegradedOwnerServesAndReleasesItsEntry) {
  SolveServiceOptions options;  // no pool: inline solves
  options.solver.deadline.seconds = 0.0;  // every solve expires at once
  SolveService service(options);

  SolveRequest request{make_app(140.0, 4), mec::SystemParams{}};
  const Result<SolveResponse> first = service.solve(request);
  ASSERT_TRUE(first.ok()) << first.error().message;
  EXPECT_EQ(first.value().source, SolveSource::kSolved);
  EXPECT_TRUE(first.value().degraded);
  ASSERT_EQ(first.value().placement.size(), request.user.graph.num_nodes());
  EXPECT_EQ(service.stats().degraded, 1u);
  EXPECT_EQ(service.stats().cache.entries, 0u);

  // A budget bounds the wait a stranded entry would impose: a rider
  // would give up after hedge_fraction of it and hedge.
  request.deadline_seconds = 0.5;
  const Result<SolveResponse> second = service.solve(request);
  ASSERT_TRUE(second.ok()) << second.error().message;
  EXPECT_EQ(second.value().source, SolveSource::kSolved);
  EXPECT_TRUE(second.value().degraded);
  const SolveService::Stats stats = service.stats();
  EXPECT_EQ(stats.degraded, 2u);
  EXPECT_EQ(stats.hedged, 0u);
  EXPECT_EQ(stats.cache.misses, 2u);
  EXPECT_EQ(stats.cache.entries, 0u);
}

TEST(SolveServiceTest, RiderHedgesPastStalledOwnerBitIdentical) {
  parallel::ThreadPool pool(4);
  FaultInjector::Options fopts;
  fopts.shards = 2;
  fopts.latency_scale_seconds = 0.5;
  FaultInjector injector(fopts);
  sim::FaultScript script;
  // 0.4 s injected stall on BOTH shards from request 1 on: the owner's
  // cold solve is pinned down long past the rider's wait budget.
  script.degrade_link(1, 0, 0.8).degrade_link(1, 1, 0.8);
  injector.arm(script);

  SolveServiceOptions options;
  options.pool = &pool;
  options.shards = 2;
  options.hedge_fraction = 0.25;
  options.injector = &injector;
  SolveService service(options);

  const SolveRequest request{make_app(150.0, 5), mec::SystemParams{}};
  mec::MecSystem system;
  system.params = request.params;
  system.users.push_back(request.user);
  mec::PipelineOffloader reference;
  const std::vector<mec::Placement> expected =
      reference.solve(system).placement.front();

  // Owner: unlimited budget, eats the full injected stall.
  BackgroundSolve owner(service, request);
  // Rider: budget 0.8 s, so it parks at most 0.2 s (hedge_fraction)
  // behind the owner — far less than the 0.4 s stall — then hedges.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  SolveRequest rider_request = request;
  rider_request.deadline_seconds = 0.8;
  const Result<SolveResponse> rider = service.solve(rider_request);
  const Result<SolveResponse> owner_response = owner.get();

  ASSERT_TRUE(owner_response.ok()) << owner_response.error().message;
  EXPECT_EQ(owner_response.value().source, SolveSource::kSolved);
  EXPECT_FALSE(owner_response.value().degraded);
  EXPECT_EQ(owner_response.value().placement, expected);

  ASSERT_TRUE(rider.ok()) << rider.error().message;
  EXPECT_EQ(rider.value().source, SolveSource::kHedged);
  EXPECT_FALSE(rider.value().degraded);
  // The hedge's duplicate solve is bit-identical to the reference.
  EXPECT_EQ(rider.value().placement, expected);

  const SolveService::Stats stats = service.stats();
  EXPECT_EQ(stats.hedged, 1u);
  EXPECT_EQ(stats.solved, 2u);  // owner + hedge both ran cold solves
  EXPECT_EQ(stats.cache.timeouts, 1u);
  EXPECT_EQ(stats.cache.misses, 1u);

  // The owner's publish survived the hedge: next request is a hit.
  const Result<SolveResponse> hot = service.solve(request);
  ASSERT_TRUE(hot.ok());
  EXPECT_EQ(hot.value().source, SolveSource::kCacheHit);
  EXPECT_EQ(hot.value().placement, expected);
}

// A hedge whose cold solve throws must return its admission slot, as
// a throwing owner always did; a leaked slot keeps await_idle from ever
// succeeding and shrinks max_in_flight admission for good.
TEST(SolveServiceTest, ThrowingHedgeReturnsItsInFlightSlot) {
  FaultInjector::Options fopts;
  fopts.shards = 2;
  fopts.latency_scale_seconds = 0.25;
  FaultInjector injector(fopts);
  sim::FaultScript script;
  // 0.2 s stall on BOTH shards: the owner is still stalled when the
  // rider's wait budget runs out, so the rider hedges.
  script.degrade_link(1, 0, 0.8).degrade_link(1, 1, 0.8);
  injector.arm(script);

  SolveServiceOptions options;
  options.shards = 2;
  options.injector = &injector;
  // Zero rounds fail propagate_labels' precondition: every cold solve,
  // the owner's and the hedge's alike, throws.
  options.solver.propagation.max_rounds = 0;
  SolveService service(options);

  SolveRequest owner_request{make_app(150.0, 5), mec::SystemParams{}};
  owner_request.deadline_seconds = 5.0;
  BackgroundSolve owner(service, owner_request);
  // Rider: budget 0.1 s, so it parks at most 0.05 s behind the owner,
  // well inside the owner's 0.2 s stall, then hedges with budget left.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  SolveRequest rider_request = owner_request;
  rider_request.deadline_seconds = 0.1;
  EXPECT_THROW((void)service.solve(rider_request), PreconditionError);
  EXPECT_THROW((void)owner.get(), PreconditionError);

  const SolveService::Stats stats = service.stats();
  EXPECT_EQ(stats.cache.timeouts, 1u);
  // Both throwing solves are counted, once each, and every request
  // lands in exactly one outcome.
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.requests,
            stats.drained + stats.shed +
                stats.cache_hits + stats.coalesced + stats.solved +
                stats.deadline_degraded + stats.failed);
  EXPECT_TRUE(service.await_idle(0.5));
}

TEST(SolveServiceTest, StolenPublishServesRequesterButNeverCaches) {
  FaultInjector injector;
  sim::FaultScript script;
  script.disconnect_user(1, 0);  // one publish failure, armed at req 1
  injector.arm(script);
  SolveServiceOptions options;
  options.injector = &injector;
  SolveService service(options);

  const SolveRequest request{make_app(160.0, 5), mec::SystemParams{}};
  mec::MecSystem system;
  system.params = request.params;
  system.users.push_back(request.user);
  mec::PipelineOffloader reference;
  const std::vector<mec::Placement> expected =
      reference.solve(system).placement.front();

  // The requester still gets its full-quality placement; only the
  // cache misses out ("result lost on the way back").
  const Result<SolveResponse> first = service.solve(request);
  ASSERT_TRUE(first.ok()) << first.error().message;
  EXPECT_EQ(first.value().source, SolveSource::kSolved);
  EXPECT_FALSE(first.value().degraded);
  EXPECT_EQ(first.value().placement, expected);
  EXPECT_EQ(service.stats().cache.entries, 0u);
  EXPECT_EQ(injector.stats().publish_failures, 1u);

  // The steal was one-shot: the next cold solve publishes normally.
  const Result<SolveResponse> second = service.solve(request);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().source, SolveSource::kSolved);
  EXPECT_EQ(service.stats().cache.entries, 1u);

  const Result<SolveResponse> third = service.solve(request);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third.value().source, SolveSource::kCacheHit);
  EXPECT_EQ(third.value().placement, expected);
  EXPECT_EQ(service.stats().cache.misses, 2u);
}

TEST(SolveServiceTest, KilledShardFailsOverFullKillDegradesThenRecovers) {
  const SolveRequest request{make_app(170.0, 4), mec::SystemParams{}};
  mec::MecSystem system;
  system.params = request.params;
  system.users.push_back(request.user);
  mec::PipelineOffloader reference;
  const std::vector<mec::Placement> expected =
      reference.solve(system).placement.front();

  // Discover the request's preferred shard with a fault-free probe —
  // shard choice is keyed by fingerprint, so this is deterministic.
  SolveServiceOptions plain;
  plain.shards = 2;
  SolveService probe(plain);
  const Result<SolveResponse> cold = probe.solve(request);
  ASSERT_TRUE(cold.ok());
  const std::size_t preferred =
      static_cast<std::size_t>(cold.value().key.lo) % 2;

  // Kill exactly the preferred shard: the solve fails over to the
  // other one and the placement is still bit-identical.
  FaultInjector::Options fopts;
  fopts.shards = 2;
  FaultInjector injector(fopts);
  sim::FaultScript one_dead;
  one_dead.crash_server(1, preferred);
  injector.arm(one_dead);
  SolveServiceOptions options;
  options.shards = 2;
  options.injector = &injector;
  SolveService service(options);
  const Result<SolveResponse> failover = service.solve(request);
  ASSERT_TRUE(failover.ok()) << failover.error().message;
  EXPECT_EQ(failover.value().source, SolveSource::kSolved);
  EXPECT_FALSE(failover.value().degraded);
  EXPECT_EQ(failover.value().placement, expected);
  EXPECT_EQ(service.stats().shard_failovers, 1u);

  // Every shard down: degrade to valid all-local — never error, never
  // hang, never cache.
  sim::FaultScript all_dead;
  all_dead.crash_server(1, 0).crash_server(1, 1);
  injector.arm(all_dead);
  const SolveRequest other{make_app(175.0, 4), mec::SystemParams{}};
  const Result<SolveResponse> dead = service.solve(other);
  ASSERT_TRUE(dead.ok());
  EXPECT_EQ(dead.value().source, SolveSource::kDeadlineDegraded);
  EXPECT_TRUE(dead.value().degraded);
  for (const mec::Placement p : dead.value().placement)
    EXPECT_EQ(p, mec::Placement::kLocal);
  EXPECT_EQ(service.stats().deadline_degraded, 1u);
  EXPECT_EQ(service.stats().cache.entries, 1u);  // only the first app

  // Recovery: a bare re-arm clears the kills; service is whole again.
  injector.arm(sim::FaultScript{});
  const Result<SolveResponse> revived = service.solve(other);
  ASSERT_TRUE(revived.ok());
  EXPECT_EQ(revived.value().source, SolveSource::kSolved);
  EXPECT_FALSE(revived.value().degraded);
}

TEST(SolveServiceTest, DrainAnswersNewImmediatelyAndFinishesInFlight) {
  parallel::ThreadPool pool(2);
  FaultInjector::Options fopts;
  fopts.shards = 2;
  fopts.latency_scale_seconds = 0.2;
  FaultInjector injector(fopts);
  sim::FaultScript script;
  script.degrade_link(1, 0, 0.5).degrade_link(1, 1, 0.5);  // 0.1 s stall
  injector.arm(script);

  SolveServiceOptions options;
  options.pool = &pool;
  options.shards = 2;
  options.injector = &injector;
  SolveService service(options);

  const SolveRequest request{make_app(150.0, 5), mec::SystemParams{}};
  mec::MecSystem system;
  system.params = request.params;
  system.users.push_back(request.user);
  mec::PipelineOffloader reference;
  const std::vector<mec::Placement> expected =
      reference.solve(system).placement.front();

  BackgroundSolve in_flight(service, request);
  // Wait until the in-flight request OWNS the cache entry (the miss is
  // counted after admission), so drain provably starts with work live.
  while (service.stats().cache.misses == 0) std::this_thread::yield();
  service.begin_drain();
  EXPECT_TRUE(service.draining());

  // New requests are answered immediately with the degrade — they do
  // not queue behind the drain.
  const Result<SolveResponse> late = service.solve(request);
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(late.value().source, SolveSource::kShed);
  EXPECT_TRUE(late.value().degraded);
  EXPECT_EQ(service.stats().drained, 1u);

  // The admitted request runs to completion at full quality: drain
  // never tears an in-flight response.
  const Result<SolveResponse> finished = in_flight.get();
  ASSERT_TRUE(finished.ok()) << finished.error().message;
  EXPECT_EQ(finished.value().source, SolveSource::kSolved);
  EXPECT_FALSE(finished.value().degraded);
  EXPECT_EQ(finished.value().placement, expected);

  EXPECT_TRUE(service.await_idle(10.0));
  EXPECT_EQ(service.stats().solved, 1u);
}

TEST(SolveServiceTest, DifferentSolverConfigsUseDifferentKeys) {
  SolveServiceOptions spectral;
  SolveService a(spectral);
  SolveServiceOptions kl = spectral;
  kl.solver.backend = mec::CutBackend::kKernighanLin;
  SolveService b(kl);
  EXPECT_NE(a.config_seed(), b.config_seed());

  SolveRequest request{make_app(90.0), mec::SystemParams{}};
  const Result<SolveResponse> ra = a.solve(request);
  const Result<SolveResponse> rb = b.solve(request);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_NE(ra.value().key, rb.value().key);
}

// Every setting the config digest hashes moves it: a service that
// differs from the defaults in that one setting gets another seed, so
// its cache keys never meet the default service's.
TEST(SolveServiceTest, ConfigSeedCoversEverySolverSetting) {
  using mec::PipelineOptions;
  struct Setting {
    const char* name;
    void (*edit)(PipelineOptions&);
  };
  const Setting settings[] = {
      {"propagation.coupling_threshold",
       [](PipelineOptions& o) { o.propagation.coupling_threshold += 1.0; }},
      {"propagation.min_update_rate",
       [](PipelineOptions& o) { o.propagation.min_update_rate *= 2.0; }},
      {"propagation.max_rounds",
       [](PipelineOptions& o) { ++o.propagation.max_rounds; }},
      {"backend",
       [](PipelineOptions& o) { o.backend = mec::CutBackend::kMaxFlow; }},
      {"spectral.fiedler.backend",
       [](PipelineOptions& o) {
         o.spectral.fiedler.backend = spectral::EigenBackend::kShiftedPower;
       }},
      {"spectral.fiedler.tolerance",
       [](PipelineOptions& o) { o.spectral.fiedler.tolerance *= 10.0; }},
      {"spectral.fiedler.max_iterations",
       [](PipelineOptions& o) { ++o.spectral.fiedler.max_iterations; }},
      {"maxflow.num_pairs", [](PipelineOptions& o) { ++o.maxflow.num_pairs; }},
      {"greedy.energy_weight",
       [](PipelineOptions& o) { o.greedy.energy_weight *= 2.0; }},
      {"greedy.time_weight",
       [](PipelineOptions& o) { o.greedy.time_weight *= 2.0; }},
      {"greedy.enable_group_moves",
       [](PipelineOptions& o) {
         o.greedy.enable_group_moves = !o.greedy.enable_group_moves;
       }},
      {"anchor_initial_parts",
       [](PipelineOptions& o) {
         o.anchor_initial_parts = !o.anchor_initial_parts;
       }},
  };
  const SolveService defaults;
  for (const Setting& setting : settings) {
    SolveServiceOptions options;
    setting.edit(options.solver);
    const SolveService edited(options);
    EXPECT_NE(edited.config_seed(), defaults.config_seed()) << setting.name;
  }
}

// ---- Request-id correlation -----------------------------------------------

TEST(RequestIdPropagation, ServiceAssignsNonZeroIdsAndHitsNameTheirOwner) {
  SolveService service;  // no pool: inline solves
  SolveRequest request{make_app(130.0, 4), mec::SystemParams{}};

  const Result<SolveResponse> cold = service.solve(request);
  ASSERT_TRUE(cold.ok()) << cold.error().message;
  EXPECT_EQ(cold.value().source, SolveSource::kSolved);
  EXPECT_NE(cold.value().request_id, 0u);
  // A cold solve serves itself.
  EXPECT_EQ(cold.value().served_by_request_id, cold.value().request_id);

  const Result<SolveResponse> hot = service.solve(request);
  ASSERT_TRUE(hot.ok()) << hot.error().message;
  EXPECT_EQ(hot.value().source, SolveSource::kCacheHit);
  EXPECT_NE(hot.value().request_id, cold.value().request_id);
  // The hit names the request whose solve actually produced the bytes.
  EXPECT_EQ(hot.value().served_by_request_id, cold.value().request_id);
}

TEST(RequestIdPropagation, CallerSuppliedIdsPassThroughUntouched) {
  SolveService service;
  SolveRequest request{make_app(140.0, 4), mec::SystemParams{}};
  request.request_id = 4242;
  const Result<SolveResponse> cold = service.solve(request);
  ASSERT_TRUE(cold.ok()) << cold.error().message;
  EXPECT_EQ(cold.value().request_id, 4242u);
  EXPECT_EQ(cold.value().served_by_request_id, 4242u);

  request.request_id = 9001;
  const Result<SolveResponse> hot = service.solve(request);
  ASSERT_TRUE(hot.ok()) << hot.error().message;
  EXPECT_EQ(hot.value().source, SolveSource::kCacheHit);
  EXPECT_EQ(hot.value().request_id, 9001u);
  // The cached entry still remembers who solved it.
  EXPECT_EQ(hot.value().served_by_request_id, 4242u);
}

TEST(RequestIdPropagation, ConcurrentStreamGetsUniqueNonZeroIds) {
  parallel::ThreadPool pool(4);
  SolveServiceOptions options;
  options.pool = &pool;
  options.shards = 2;
  SolveService service(options);

  constexpr std::size_t kClients = 6;
  constexpr std::size_t kPerClient = 8;
  std::vector<SolveRequest> requests;
  for (std::size_t a = 0; a < 3; ++a) {
    requests.push_back(
        {make_app(110.0 + 10.0 * static_cast<double>(a), 3 + a),
         mec::SystemParams{}});
  }

  std::vector<std::vector<std::uint64_t>> ids(kClients);
  std::atomic<std::size_t> failures{0};
  std::atomic<std::size_t> zero_served_by{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; i < kPerClient; ++i) {
        const Result<SolveResponse> r =
            service.solve(requests[(c + i) % requests.size()]);
        if (!r.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        // Every response names its producer: the owner's id for
        // hits/coalesced, the request's own id otherwise.
        if (r.value().served_by_request_id == 0)
          zero_served_by.fetch_add(1, std::memory_order_relaxed);
        ids[c].push_back(r.value().request_id);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(zero_served_by.load(), 0u);
  std::set<std::uint64_t> unique;
  for (const std::vector<std::uint64_t>& client_ids : ids) {
    for (const std::uint64_t id : client_ids) {
      EXPECT_NE(id, 0u);
      unique.insert(id);
    }
  }
  // Service-assigned ids are unique across concurrent clients — even
  // coalesced riders keep their own id (only served_by aliases).
  EXPECT_EQ(unique.size(), kClients * kPerClient);
}

// The correlation id survives the whole observability chain: a
// caller-supplied id shows up on the flight-recorder record written by
// the solve it triggered, and the latency quantile window carries a
// non-zero exemplar id. (The exact exemplar == slowed-request check
// lives in obs_serve_test.cpp where the injector controls latency.)
TEST(RequestIdPropagation, CallerIdLandsInFlightRecorderRecord) {
  SolveService service;
  SolveRequest request{make_app(170.0, 5), mec::SystemParams{}};
  request.request_id = 987654321;
  const Result<SolveResponse> r = service.solve(request);
  ASSERT_TRUE(r.ok()) << r.error().message;
  ASSERT_EQ(r.value().source, SolveSource::kSolved);

  bool found = false;
  for (const obs::SolveRecord& record :
       obs::FlightRecorder::global().snapshot()) {
    if (record.request_id == 987654321u) found = true;
  }
  EXPECT_TRUE(found);

  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  const auto it = snap.quantiles.find("serve.solve.latency");
  ASSERT_NE(it, snap.quantiles.end());
  EXPECT_GE(it->second.count, 1u);
  EXPECT_NE(it->second.max_request_id, 0u);
}

}  // namespace
}  // namespace mecoff::serve
