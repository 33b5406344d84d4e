// Observability-layer tests (ctest label: obs).
//
// Three claims are under test:
//   1. The MetricsRegistry primitives are exact under concurrency —
//      counts survive a ThreadPool hammering them.
//   2. The TraceCollector records what happened (nesting, counts,
//      capacity) and exports well-formed Chrome trace JSON.
//   3. Instrumentation is OBSERVATION ONLY: enabling tracing does not
//      change a single placement bit, and the SolveStats the solver
//      reports agree exactly with the registry gauges (they are written
//      from the same doubles — see src/mec/offloader.cpp).
#include <gtest/gtest.h>

#include <future>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "graph/generators.hpp"
#include "mec/offloader.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/quantiles.hpp"
#include "obs/request_id.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"

namespace mecoff {
namespace {

using obs::MetricsRegistry;
using obs::TraceCollector;

// ---- metrics primitives ---------------------------------------------------

TEST(Metrics, CounterAddsAndResets) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add(3);
  c.add(4);
  EXPECT_EQ(c.value(), 7u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, GaugeSetAndAdd) {
  obs::Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.25);
  EXPECT_DOUBLE_EQ(g.value(), 1.25);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Metrics, RegistryReturnsStableReferencesAndRejectsKindClashes) {
  MetricsRegistry& reg = MetricsRegistry::global();
  obs::Counter& a = reg.counter("obs_test.stable");
  obs::Counter& b = reg.counter("obs_test.stable");
  EXPECT_EQ(&a, &b);
  EXPECT_THROW((void)reg.gauge("obs_test.stable"), PreconditionError);
  EXPECT_THROW((void)reg.quantiles("obs_test.stable"), PreconditionError);
}

TEST(Metrics, SnapshotAndTextContainRegisteredNames) {
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.counter("obs_test.snap.counter").add(11);
  reg.gauge("obs_test.snap.gauge").set(0.5);
  reg.quantiles("obs_test.snap.quantiles").record(0.01);
  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_TRUE(snap.counters.contains("obs_test.snap.counter"));
  EXPECT_GE(snap.counters.at("obs_test.snap.counter"), 11u);
  ASSERT_TRUE(snap.gauges.contains("obs_test.snap.gauge"));
  ASSERT_TRUE(snap.quantiles.contains("obs_test.snap.quantiles"));
  const std::string text = reg.to_text();
  EXPECT_NE(text.find("obs_test.snap.counter"), std::string::npos);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"obs_test.snap.gauge\":0.5"), std::string::npos);
}

TEST(Metrics, CounterIsExactUnderThreadPoolContention) {
  MetricsRegistry& reg = MetricsRegistry::global();
  obs::Counter& c = reg.counter("obs_test.contended");
  c.reset();
  constexpr std::size_t kTasks = 64;
  constexpr std::size_t kPerTask = 1000;
  parallel::ThreadPool pool(4);
  std::vector<std::future<void>> futures;
  futures.reserve(kTasks);
  for (std::size_t t = 0; t < kTasks; ++t) {
    futures.push_back(pool.submit([&c] {
      for (std::size_t i = 0; i < kPerTask; ++i)
        c.add(1);
    }));
  }
  for (std::future<void>& f : futures) f.get();
  EXPECT_EQ(c.value(), kTasks * kPerTask);
}

TEST(Metrics, MacroFacadeTouchesTheGlobalRegistry) {
  MetricsRegistry::global().counter("obs_test.macro").reset();
  MECOFF_COUNTER_ADD("obs_test.macro", 5);
  MECOFF_COUNTER_ADD("obs_test.macro", 2);
  EXPECT_EQ(MetricsRegistry::global().counter("obs_test.macro").value(), 7u);
}

// ---- quantile exemplars ---------------------------------------------------

// The exemplar API is a class method, not a macro.
TEST(QuantilesExemplar, TracksWindowMaximumAndEvictsWithIt) {
  obs::Quantiles q(/*window_capacity=*/3);
  EXPECT_EQ(q.max_exemplar().request_id, 0u);  // empty window
  q.record(0.5, 101);
  q.record(2.0, 102);
  q.record(0.7, 103);
  EXPECT_DOUBLE_EQ(q.max_exemplar().value, 2.0);
  EXPECT_EQ(q.max_exemplar().request_id, 102u);
  // Two more samples push 102's 2.0 out of the 3-slot window; the
  // exemplar must follow the eviction, not remember the all-time max.
  q.record(0.6, 104);
  q.record(0.8, 105);
  EXPECT_DOUBLE_EQ(q.max_exemplar().value, 0.8);
  EXPECT_EQ(q.max_exemplar().request_id, 105u);
}

TEST(QuantilesExemplar, TiesResolveToTheNewestSample) {
  obs::Quantiles q(/*window_capacity=*/4);
  q.record(1.0, 7);
  q.record(1.0, 8);
  q.record(0.2, 9);
  EXPECT_EQ(q.max_exemplar().request_id, 8u);
}

TEST(QuantilesExemplar, UntaggedRecordKeepsIdZero) {
  obs::Quantiles q(/*window_capacity=*/4);
  q.record(3.0);
  q.record(1.0, 42);
  EXPECT_DOUBLE_EQ(q.max_exemplar().value, 3.0);
  EXPECT_EQ(q.max_exemplar().request_id, 0u);
}

TEST(RequestId, ScopeSetsAndRestoresThreadLocally) {
  EXPECT_EQ(obs::current_request_id(), 0u);
  {
    const obs::RequestIdScope outer(11);
    EXPECT_EQ(obs::current_request_id(), 11u);
    {
      const obs::RequestIdScope inner(22);
      EXPECT_EQ(obs::current_request_id(), 22u);
    }
    EXPECT_EQ(obs::current_request_id(), 11u);
    // Thread-local: another thread sees no id.
    std::uint64_t other = 99;
    std::thread probe([&other] { other = obs::current_request_id(); });
    probe.join();
    EXPECT_EQ(other, 0u);
  }
  EXPECT_EQ(obs::current_request_id(), 0u);
}

TEST(QuantilesExemplar, SnapshotAndJsonCarryTheMaxExemplar) {
  MetricsRegistry& reg = MetricsRegistry::global();
  obs::Quantiles& q = reg.quantiles("obs_test.exemplar");
  q.reset();
  MECOFF_QUANTILES_RECORD_ID("obs_test.exemplar", 0.25, 5);
  MECOFF_QUANTILES_RECORD_ID("obs_test.exemplar", 0.75, 6);
  const obs::MetricsSnapshot snap = reg.snapshot();
  const auto& value = snap.quantiles.at("obs_test.exemplar");
  EXPECT_DOUBLE_EQ(value.max_value, 0.75);
  EXPECT_EQ(value.max_request_id, 6u);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"max\":0.75,\"max_request_id\":6"),
            std::string::npos);
}

// ---- timeline -------------------------------------------------------------

// Timeline tests run against a PRIVATE registry (Options::registry), so
// nothing else recorded by this binary can perturb the oracle.

TEST(Timeline, DeltaAndRateMathMatchesHandOracle) {
  obs::MetricsRegistry registry;
  obs::Timeline::Options options;
  options.registry = &registry;
  obs::Timeline timeline(options);

  registry.counter("t.requests").add(10);
  timeline.sample_now(/*tick=*/5);
  registry.counter("t.requests").add(30);
  registry.gauge("t.depth").set(2.5);
  timeline.sample_now(/*tick=*/15);

  const std::vector<obs::Timeline::Sample> samples = timeline.samples();
  ASSERT_EQ(samples.size(), 2u);
  // First sample: delta from the zero origin over 5 ticks.
  const obs::Timeline::CounterPoint& first =
      samples[0].counters.at("t.requests");
  EXPECT_EQ(first.value, 10u);
  EXPECT_EQ(first.delta, 10);
  EXPECT_DOUBLE_EQ(first.rate, 10.0 / 5.0);
  // Second: delta vs the previous sample over 10 ticks.
  const obs::Timeline::CounterPoint& second =
      samples[1].counters.at("t.requests");
  EXPECT_EQ(second.value, 40u);
  EXPECT_EQ(second.delta, 30);
  EXPECT_DOUBLE_EQ(second.rate, 30.0 / 10.0);
  EXPECT_DOUBLE_EQ(samples[1].gauges.at("t.depth"), 2.5);
}

TEST(Timeline, RingWrapsAndDeltasSurviveEviction) {
  obs::MetricsRegistry registry;
  obs::Timeline::Options options;
  options.registry = &registry;
  options.capacity = 2;
  obs::Timeline timeline(options);

  for (std::uint64_t i = 1; i <= 4; ++i) {
    registry.counter("t.c").add(i);  // cumulative: 1, 3, 6, 10
    timeline.sample_now(i);
  }
  EXPECT_EQ(timeline.size(), 2u);
  EXPECT_EQ(timeline.samples_taken(), 4u);
  EXPECT_EQ(timeline.dropped(), 2u);
  const std::vector<obs::Timeline::Sample> samples = timeline.samples();
  ASSERT_EQ(samples.size(), 2u);
  // Oldest retained is sample 3 — its delta is against the EVICTED
  // sample 2 (value 3), proving the delta base outlives the ring.
  EXPECT_EQ(samples[0].tick, 3u);
  EXPECT_EQ(samples[0].counters.at("t.c").value, 6u);
  EXPECT_EQ(samples[0].counters.at("t.c").delta, 3);
  EXPECT_EQ(samples[1].tick, 4u);
  EXPECT_EQ(samples[1].counters.at("t.c").value, 10u);
  EXPECT_EQ(samples[1].counters.at("t.c").delta, 4);
}

TEST(Timeline, KeyFilterRestrictsEveryInstrumentKind) {
  obs::MetricsRegistry registry;
  registry.counter("keep.c").add(1);
  registry.counter("drop.c").add(1);
  registry.gauge("drop.g").set(1.0);
  registry.quantiles("drop.q").record(1.0);
  obs::Timeline::Options options;
  options.registry = &registry;
  options.keys = {"keep.c"};
  obs::Timeline timeline(options);
  timeline.sample_now(1);
  const std::vector<obs::Timeline::Sample> samples = timeline.samples();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].counters.size(), 1u);
  EXPECT_TRUE(samples[0].counters.contains("keep.c"));
  EXPECT_TRUE(samples[0].gauges.empty());
  EXPECT_TRUE(samples[0].quantiles.empty());
}

TEST(Timeline, TickModeSamplesOnPeriodAndJsonIsByteStable) {
  obs::MetricsRegistry registry;
  obs::Timeline::Options options;
  options.registry = &registry;
  options.mode = obs::Timeline::Mode::kTick;
  options.tick_period = 2;
  obs::Timeline timeline(options);
  for (int i = 0; i < 5; ++i) {
    registry.counter("t.c").add(1);
    timeline.note_request();
  }
  EXPECT_EQ(timeline.samples_taken(), 2u);  // at requests 2 and 4
  const std::vector<obs::Timeline::Sample> samples = timeline.samples();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].tick, 2u);
  EXPECT_EQ(samples[1].tick, 4u);
  const std::string json = timeline.to_json();
  // The determinism contract: tick-mode documents carry no wall-clock
  // fields and re-render byte-identically.
  EXPECT_EQ(json.find("wall_seconds"), std::string::npos);
  EXPECT_NE(json.find("\"schema\":\"mecoff.timeline.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"mode\":\"tick\""), std::string::npos);
  EXPECT_EQ(json, timeline.to_json());
}

TEST(Timeline, WallModeEmitsWallSecondsAndThrottlesByInterval) {
  obs::MetricsRegistry registry;
  obs::Timeline::Options options;
  options.registry = &registry;
  options.mode = obs::Timeline::Mode::kWall;
  options.interval_seconds = 3600.0;  // effectively once
  obs::Timeline timeline(options);
  timeline.poll_wall();  // first poll always samples
  timeline.poll_wall();  // an hour has not elapsed
  timeline.poll_wall();
  EXPECT_EQ(timeline.samples_taken(), 1u);
  EXPECT_NE(timeline.to_json().find("wall_seconds"), std::string::npos);
}

TEST(Timeline, ManualModeIgnoresNoteAndPoll) {
  obs::MetricsRegistry registry;
  obs::Timeline::Options options;
  options.registry = &registry;
  obs::Timeline timeline(options);
  for (int i = 0; i < 10; ++i) timeline.note_request();
  timeline.poll_wall();
  EXPECT_EQ(timeline.samples_taken(), 0u);
  timeline.sample_now(10);
  EXPECT_EQ(timeline.samples_taken(), 1u);
  EXPECT_NE(timeline.to_json().find("\"mode\":\"manual\""),
            std::string::npos);
}

// ---- trace collector ------------------------------------------------------

/// RAII guard: tests must not leave the global collector enabled (other
/// suites in other binaries assume tracing is opt-in).
struct TraceSession {
  explicit TraceSession(bool enabled) {
    TraceCollector::global().clear();
    TraceCollector::global().enable(enabled);
  }
  ~TraceSession() {
    TraceCollector::global().enable(false);
    TraceCollector::global().clear();
  }
};

TEST(Trace, DisabledCollectorRecordsNothing) {
  TraceSession session(false);
  { MECOFF_TRACE_SPAN("obs_test.ignored"); }
  EXPECT_EQ(TraceCollector::global().event_count(), 0u);
}

TEST(Trace, RecordsNestedSpansWithDepth) {
  TraceSession session(true);
  {
    MECOFF_TRACE_SPAN("obs_test.outer");
    {
      MECOFF_TRACE_SPAN_ARG("obs_test.inner", 42);
    }
  }
  TraceCollector::global().enable(false);
  EXPECT_EQ(TraceCollector::global().event_count(), 2u);
  std::ostringstream out;
  TraceCollector::global().write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("obs_test.outer"), std::string::npos);
  EXPECT_NE(json.find("obs_test.inner"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // The inner span closed first and nests one level deeper.
  EXPECT_NE(json.find("\"depth\":1"), std::string::npos);
  EXPECT_NE(json.find("\"arg\":42"), std::string::npos);
}

TEST(Trace, CapacityCapDropsInsteadOfGrowing) {
  TraceSession session(true);
  TraceCollector::global().set_capacity(8);
  for (int i = 0; i < 20; ++i) {
    MECOFF_TRACE_SPAN("obs_test.burst");
  }
  TraceCollector::global().enable(false);
  EXPECT_LE(TraceCollector::global().event_count(), 8u);
  EXPECT_GE(TraceCollector::global().dropped_count(), 12u);
  TraceCollector::global().set_capacity(1u << 20);
}

TEST(Trace, ThreadsGetDistinctLogsAndAllEventsSurvive) {
  TraceSession session(true);
  constexpr std::size_t kSpansPerThread = 50;
  std::thread t1([] {
    for (std::size_t i = 0; i < kSpansPerThread; ++i) {
      MECOFF_TRACE_SPAN("obs_test.t1");
    }
  });
  std::thread t2([] {
    for (std::size_t i = 0; i < kSpansPerThread; ++i) {
      MECOFF_TRACE_SPAN("obs_test.t2");
    }
  });
  t1.join();
  t2.join();
  TraceCollector::global().enable(false);
  EXPECT_EQ(TraceCollector::global().event_count(), 2 * kSpansPerThread);
}

// ---- instrumentation is observation only ----------------------------------

mec::MecSystem obs_test_system(std::size_t users) {
  mec::SystemParams params;
  params.mobile_power = 1.0;
  params.transmit_power = 8.0;
  params.bandwidth = 50.0;
  params.mobile_capacity = 5.0;
  params.server_capacity = 500.0;
  std::vector<mec::UserApp> apps;
  apps.reserve(users);
  for (std::size_t u = 0; u < users; ++u) {
    graph::NetgenParams p;
    p.nodes = 80;
    p.edges = 320;
    p.seed = 1000 + u;
    mec::UserApp app;
    app.graph = graph::netgen_style(p);
    apps.push_back(std::move(app));
  }
  return mec::MecSystem{params, std::move(apps)};
}

mec::OffloadingScheme solve_once(const mec::MecSystem& system,
                                 parallel::ThreadPool* pool,
                                 mec::PipelineOffloader::SolveStats* stats) {
  mec::PipelineOptions opts;
  opts.propagation.coupling_threshold = 10.0;
  opts.pool = pool;
  mec::PipelineOffloader offloader(opts);
  const mec::OffloadingScheme scheme = offloader.solve(system);
  if (stats != nullptr) *stats = offloader.last_stats();
  return scheme;
}

TEST(ObsEquivalence, TracingDoesNotChangeSchemesSerial) {
  const mec::MecSystem system = obs_test_system(6);
  const mec::OffloadingScheme untraced = solve_once(system, nullptr, nullptr);
  TraceSession session(true);
  const mec::OffloadingScheme traced = solve_once(system, nullptr, nullptr);
  EXPECT_EQ(traced, untraced);
}

TEST(ObsEquivalence, TracingDoesNotChangeSchemesPooled) {
  const mec::MecSystem system = obs_test_system(6);
  parallel::ThreadPool pool(4);
  const mec::OffloadingScheme untraced = solve_once(system, &pool, nullptr);
  TraceSession session(true);
  const mec::OffloadingScheme traced = solve_once(system, &pool, nullptr);
  EXPECT_EQ(traced, untraced);
  // And pooled == serial stays true with tracing on (the bench's
  // bit-identity claim must survive instrumentation).
  const mec::OffloadingScheme serial = solve_once(system, nullptr, nullptr);
  EXPECT_EQ(traced, serial);
}

TEST(ObsEquivalence, SolveStatsStageSumsBoundedByTotalOnSerialRuns) {
  const mec::MecSystem system = obs_test_system(4);
  mec::PipelineOffloader::SolveStats stats;
  (void)solve_once(system, nullptr, &stats);
  // Serial run: stage clocks are disjoint slices of the same wall
  // clock, so their sum cannot exceed the total (small epsilon for the
  // unmeasured glue between stopwatches).
  EXPECT_LE(stats.compress_seconds + stats.cut_seconds + stats.greedy_seconds,
            stats.total_seconds + 1e-6);
  EXPECT_GE(stats.total_seconds, 0.0);
}

TEST(ObsEquivalence, RegistryGaugesEqualSolveStatsExactly) {
  const mec::MecSystem system = obs_test_system(4);
  mec::PipelineOffloader::SolveStats stats;
  (void)solve_once(system, nullptr, &stats);
  // Single-source contract: the gauge is written from the very double
  // SolveStats holds, so equality is exact, not approximate.
  const obs::MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.gauges.at("mec.solve.final_objective"),
            stats.final_objective);

  // The latency windows are fed the same doubles: the newest solve
  // sample is the total, and the serial run's four per-user samples,
  // summed in user order, are the stage sums SolveStats accumulates.
  MetricsRegistry& reg = MetricsRegistry::global();
  const std::vector<double> latency =
      reg.quantiles("mec.solve.latency").window();
  ASSERT_FALSE(latency.empty());
  EXPECT_EQ(latency.back(), stats.total_seconds);
  const std::pair<const char*, double> stages[] = {
      {"mec.user.compress_seconds", stats.compress_seconds},
      {"mec.user.cut_seconds", stats.cut_seconds}};
  for (const auto& [name, total] : stages) {
    const std::vector<double> window = reg.quantiles(name).window();
    ASSERT_GE(window.size(), 4u) << name;
    double sum = 0.0;
    for (std::size_t i = window.size() - 4; i < window.size(); ++i)
      sum += window[i];
    EXPECT_EQ(sum, total) << name;
  }
}

}  // namespace
}  // namespace mecoff
