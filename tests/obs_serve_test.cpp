// Live-telemetry serving tests (ctest label: obs).
//
// Claims under test:
//   1. The Prometheus exposition is byte-stable — a hand-built snapshot
//      renders exactly the committed golden fixture (name mangling,
//      cumulative buckets, summary quantiles, number formatting).
//   2. The sliding-window quantile estimator agrees with an exact
//      sort-the-window oracle to within 1% at p50/p95/p99 on 10k
//      samples, including after the window has slid.
//   3. The flight recorder ring wraps correctly, classifies anomalies
//      (deadline fallback > latency outlier), and writes a post-mortem
//      JSON dump when armed with a dump directory, counting only dumps
//      whose write reached the file.
//   4. The embedded HTTP server answers /metrics, /varz, /healthz (a
//      plain 200 liveness probe) and /flightz over a real loopback
//      socket, and 404s unknown paths.
//   5. ObsEquivalence extension: serving OBSERVES — running the
//      telemetry server changes no placement bit of a solve.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "mec/offloader.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/quantiles.hpp"
#include "obs/serve/exposition.hpp"
#include "obs/serve/http_parser.hpp"
#include "obs/serve/telemetry_server.hpp"
#include "obs/timeline.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

namespace mecoff {
namespace {

using obs::FlightRecorder;
using obs::Quantiles;
using obs::SolveRecord;

// ---- Prometheus exposition ------------------------------------------------

TEST(Exposition, ManglesNamesToPrometheusGrammar) {
  EXPECT_EQ(obs::serve::prometheus_name("mec.solve.latency"),
            "mec_solve_latency");
  EXPECT_EQ(obs::serve::prometheus_name("already_legal:name"),
            "already_legal:name");
  EXPECT_EQ(obs::serve::prometheus_name("9starts.with digit!"),
            "_9starts_with_digit_");
}

/// A fully deterministic snapshot covering every instrument kind plus
/// the mangling edge cases; the golden fixture is its exact rendering.
obs::MetricsSnapshot golden_snapshot() {
  obs::MetricsSnapshot snap;
  snap.counters["mec.solve.count"] = 42;
  snap.counters["9weird name!"] = 1;
  snap.gauges["mec.solve.total_seconds"] = 0.125;
  obs::MetricsSnapshot::QuantilesValue q;
  q.count = 100;
  q.sum = 12.5;
  q.window_size = 64;
  q.p50 = 0.1;
  q.p95 = 0.25;
  q.p99 = 0.5;
  snap.quantiles["mec.solve.latency"] = q;
  return snap;
}

TEST(Exposition, MatchesGoldenFixtureByteForByte) {
  const std::string rendered =
      obs::serve::to_prometheus_text(golden_snapshot());
  const std::string path =
      std::string(MECOFF_GOLDEN_DIR) + "/prometheus_exposition.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden fixture " << path;
  std::ostringstream expected;
  expected << in.rdbuf();
  // Byte-for-byte: the exposition promises locale-independent,
  // deterministically ordered output (print both on mismatch).
  EXPECT_EQ(rendered, expected.str());
}

TEST(Exposition, EmptyQuantileWindowRendersNaNSamples) {
  obs::MetricsSnapshot snap;
  obs::MetricsSnapshot::QuantilesValue q;  // window_size == 0
  snap.quantiles["empty.window"] = q;
  const std::string text = obs::serve::to_prometheus_text(snap);
  EXPECT_NE(text.find("empty_window{quantile=\"0.5\"} NaN\n"),
            std::string::npos);
}

// ---- quantile estimator vs exact oracle -----------------------------------

/// numpy-style linear interpolation over an explicit sort — the oracle
/// the streaming window must agree with.
double oracle_quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return obs::quantile_of_sorted(values, q);
}

TEST(QuantilesOracle, TracksExactSortWithinOnePercentOn10kSamples) {
  // Deterministic heavy-tailed samples (mt19937_64 is bit-specified by
  // the standard; the exp transform avoids distribution<> variance
  // across standard libraries).
  std::mt19937_64 rng(0x5EED);
  std::vector<double> samples;
  samples.reserve(10000);
  Quantiles window(10000);
  for (int i = 0; i < 10000; ++i) {
    const double u =
        static_cast<double>(rng()) / static_cast<double>(rng.max());
    const double value = std::exp(3.0 * u);  // in [1, e^3], skewed
    samples.push_back(value);
    window.record(value);
  }
  for (const double q : {0.5, 0.95, 0.99}) {
    const double exact = oracle_quantile(samples, q);
    const double streamed = window.quantile(q);
    EXPECT_NEAR(streamed, exact, 0.01 * exact)
        << "quantile " << q << " drifted past 1%";
  }
}

TEST(QuantilesOracle, SlidingWindowForgetsOldSamples) {
  std::mt19937_64 rng(77);
  std::vector<double> all;
  all.reserve(20000);
  Quantiles window(10000);
  for (int i = 0; i < 20000; ++i) {
    const double u =
        static_cast<double>(rng()) / static_cast<double>(rng.max());
    // First half low, second half shifted up: a slid window must see
    // only the recent regime.
    const double value = (i < 10000 ? 1.0 : 100.0) + u;
    all.push_back(value);
    window.record(value);
  }
  EXPECT_EQ(window.count(), 20000u);
  EXPECT_EQ(window.window_size(), 10000u);
  const std::vector<double> recent(all.begin() + 10000, all.end());
  for (const double q : {0.5, 0.95, 0.99}) {
    const double exact = oracle_quantile(recent, q);
    EXPECT_NEAR(window.quantile(q), exact, 0.01 * exact);
    EXPECT_GE(window.quantile(q), 100.0);  // old regime fully forgotten
  }
}

TEST(QuantilesOracle, InterpolatesBetweenOrderStatistics) {
  const double sorted[] = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(obs::quantile_of_sorted(sorted, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(obs::quantile_of_sorted(sorted, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(obs::quantile_of_sorted(sorted, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(obs::quantile_of_sorted(sorted, 1.0 / 3.0), 2.0);
}

// ---- flight recorder ------------------------------------------------------

SolveRecord healthy_record(double total_seconds = 0.01) {
  SolveRecord r;
  r.users = 4;
  r.parts = 8;
  r.total_seconds = total_seconds;
  return r;
}

TEST(FlightRecorderTest, RingWrapsKeepingNewestRecords) {
  FlightRecorder recorder(4);
  recorder.set_latency_trigger(0.0);  // disarm: only topology under test
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(recorder.record(healthy_record()), obs::AnomalyKind::kNone);
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.total_records(), 10u);
  const std::vector<SolveRecord> ring = recorder.snapshot();
  ASSERT_EQ(ring.size(), 4u);
  // Oldest to newest, and only the newest four survive: seq 6..9.
  for (std::size_t i = 0; i < ring.size(); ++i)
    EXPECT_EQ(ring[i].seq, 6u + i);
}

TEST(FlightRecorderTest, ClassifiesDegradedSolvesAsDeadlineFallback) {
  FlightRecorder recorder(8);
  SolveRecord degraded = healthy_record();
  degraded.fallback_all_remote = 2;
  const obs::AnomalyKind kind = recorder.record(degraded);
  EXPECT_EQ(kind, obs::AnomalyKind::kDeadlineFallback);
  EXPECT_EQ(recorder.anomaly_count(), 1u);
  const std::vector<SolveRecord> ring = recorder.snapshot();
  ASSERT_EQ(ring.size(), 1u);
  EXPECT_STREQ(ring[0].fallback_level(), "all_remote");
}

TEST(FlightRecorderTest, LatencyOutlierJudgedAgainstPriorWindow) {
  FlightRecorder recorder(8);
  recorder.set_latency_trigger(3.0, /*min_samples=*/8);
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(recorder.record(healthy_record(0.010)),
              obs::AnomalyKind::kNone);
  // 10x the window's p95: fires. The sample is excluded from the window
  // it is judged against, so it cannot hide behind itself.
  EXPECT_EQ(recorder.record(healthy_record(0.100)),
            obs::AnomalyKind::kLatencyOutlier);
  // Back to normal: no anomaly even though the outlier is now IN the
  // window (3x margin absorbs one outlier's pull on p95).
  EXPECT_EQ(recorder.record(healthy_record(0.010)),
            obs::AnomalyKind::kNone);
}

TEST(FlightRecorderTest, AnomalyWritesPostMortemDump) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "mecoff_flight_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  FlightRecorder recorder(4);
  recorder.set_dump_dir(dir.string());
  (void)recorder.record(healthy_record());
  EXPECT_EQ(recorder.dump_count(), 0u);  // healthy: no dump

  SolveRecord bad = healthy_record();
  bad.deadline_expired = true;
  EXPECT_EQ(recorder.record(bad), obs::AnomalyKind::kDeadlineFallback);
  EXPECT_EQ(recorder.dump_count(), 1u);
  const std::string path = recorder.last_dump_path();
  ASSERT_FALSE(path.empty());
  EXPECT_NE(path.find("deadline_fallback"), std::string::npos);

  std::ifstream in(path);
  ASSERT_TRUE(in) << "dump file missing: " << path;
  std::ostringstream dumped;
  dumped << in.rdbuf();
  EXPECT_NE(dumped.str().find("\"schema\":\"mecoff.flight_recorder.v1\""),
            std::string::npos);
  EXPECT_NE(dumped.str().find("\"kind\":\"deadline_fallback\""),
            std::string::npos);
  // Both ring records are in the post-mortem, oldest first.
  EXPECT_NE(dumped.str().find("\"seq\":0"), std::string::npos);
  EXPECT_NE(dumped.str().find("\"seq\":1"), std::string::npos);
  std::filesystem::remove_all(dir);
}

// A dump that does not reach its file is no dump. Both dump paths are
// symlinks to /dev/full, which opens but fails every write: the
// degraded solve still counts as an anomaly, the drain dump comes back
// as an error, and neither counts as a dump or names a dump path.
TEST(FlightRecorderTest, FailedDumpWritesAreNotCounted) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "mecoff_flight_full_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::filesystem::create_symlink("/dev/full",
                                  dir / "flight_0_deadline_fallback.json");
  std::filesystem::create_symlink("/dev/full", dir / "flight_1_drain.json");

  FlightRecorder recorder(4);
  recorder.set_dump_dir(dir.string());
  SolveRecord bad = healthy_record();
  bad.deadline_expired = true;
  EXPECT_EQ(recorder.record(bad), obs::AnomalyKind::kDeadlineFallback);
  EXPECT_EQ(recorder.anomaly_count(), 1u);
  EXPECT_EQ(recorder.dump_count(), 0u);
  EXPECT_EQ(recorder.last_dump_path(), "");

  const Result<std::string> drained = recorder.dump_now("drain");
  ASSERT_FALSE(drained.ok());
  EXPECT_EQ(drained.error().message,
            "flight recorder: cannot write " +
                (dir / "flight_1_drain.json").string());
  EXPECT_EQ(recorder.dump_count(), 0u);
  EXPECT_EQ(recorder.last_dump_path(), "");
  std::filesystem::remove_all(dir);
}

TEST(FlightRecorderTest, ToJsonWithoutAnomalyHasNullTrigger) {
  FlightRecorder recorder(2);
  (void)recorder.record(healthy_record());
  const std::string json = recorder.to_json();
  EXPECT_EQ(json.find("\"anomaly\":null"), json.find("\"anomaly\":"));
  EXPECT_NE(json.find("\"records\":[{"), std::string::npos);
}

// Concurrency regression pinned by the thread-safety annotations: all
// recorder state (ring, seq counter) is GUARDED_BY(mutex_), so records
// from racing solver threads must never lose a count or double-assign
// a sequence number. Run under TSAN by the sanitize workflow.
TEST(FlightRecorderTest, ConcurrentRecordsLoseNothing) {
  constexpr std::size_t kRecorders = 4;
  constexpr std::size_t kPerThread = 100;
  FlightRecorder recorder(kRecorders * kPerThread);  // no eviction
  recorder.set_latency_trigger(0.0);  // only counting under test

  std::vector<std::thread> threads;
  threads.reserve(kRecorders);
  for (std::size_t t = 0; t < kRecorders; ++t)
    threads.emplace_back([&recorder] {
      for (std::size_t i = 0; i < kPerThread; ++i)
        (void)recorder.record(healthy_record());
    });
  for (std::thread& thread : threads) thread.join();

  const std::vector<SolveRecord> ring = recorder.snapshot();
  ASSERT_EQ(ring.size(), kRecorders * kPerThread);
  EXPECT_EQ(recorder.total_records(), kRecorders * kPerThread);
  std::vector<bool> seen_seq(ring.size(), false);
  for (const SolveRecord& rec : ring) {
    ASSERT_LT(rec.seq, ring.size());
    EXPECT_FALSE(seen_seq[rec.seq]) << "duplicate seq " << rec.seq;
    seen_seq[rec.seq] = true;
  }
}

// ---- HTTP serving over a real socket --------------------------------------

/// Minimal raw-socket HTTP client: one GET, read to EOF. Keeps the
/// in-tree tests free of a curl dependency (CI smoke uses curl).
std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(TelemetryServerTest, ServesMetricsVarzAndFlightz) {
  obs::MetricsRegistry::global().counter("obs_serve_test.hits").add(3);
  obs::MetricsRegistry::global().quantiles("obs_serve_test.lat").record(0.5);

  obs::serve::TelemetryServer server;
  const Result<std::uint16_t> port = server.start(0);  // ephemeral
  ASSERT_TRUE(port.ok()) << port.error().message;
  EXPECT_TRUE(server.running());

  const std::string metrics = http_get(port.value(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("obs_serve_test_hits"), std::string::npos);
  EXPECT_NE(metrics.find("obs_serve_test_lat{quantile=\"0.5\"}"),
            std::string::npos);

  const std::string varz = http_get(port.value(), "/varz");
  EXPECT_NE(varz.find("\"metrics\":{"), std::string::npos);
  EXPECT_NE(varz.find("\"flight_recorder\":{"), std::string::npos);

  const std::string flightz = http_get(port.value(), "/flightz");
  EXPECT_NE(flightz.find("\"schema\":\"mecoff.flight_recorder.v1\""),
            std::string::npos);

  const std::string healthz = http_get(port.value(), "/healthz");
  EXPECT_NE(healthz.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(healthz.find("ok"), std::string::npos);

  EXPECT_NE(http_get(port.value(), "/nope").find("HTTP/1.1 404"),
            std::string::npos);
  EXPECT_GE(server.requests_served(), 5u);
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(TelemetryServerTest, SurvivesGarbageRequests) {
  obs::serve::TelemetryServer server;
  const Result<std::uint16_t> port = server.start(0);
  ASSERT_TRUE(port.ok());
  // Raw garbage instead of HTTP.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port.value());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const char garbage[] = "\x01\x02 not http at all\r\n\r\n";
  (void)::send(fd, garbage, sizeof(garbage) - 1, 0);
  char buffer[256];
  (void)::recv(fd, buffer, sizeof(buffer), 0);
  ::close(fd);
  // And the server still answers a well-formed request afterwards.
  EXPECT_NE(http_get(port.value(), "/healthz").find("HTTP/1.1 200"),
            std::string::npos);
  server.stop();
}

// ---- Stalled/hostile peers and prompt shutdown ----------------------------
//
// Regression suite for the telemetry-server wedge: the server used to
// serve connections serially with an untimed blocking recv, so one
// silent peer blocked /healthz for everyone, and stop() only shut the
// listener down, hanging the join behind a peer mid-recv.

/// Open a raw loopback connection without sending anything.
int connect_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// One POST with Content-Length, read to EOF.
std::string http_post(std::uint16_t port, const std::string& path,
                      const std::string& body) {
  const int fd = connect_raw(port);
  if (fd < 0) return "";
  const std::string request =
      "POST " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body;
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(HttpRobustness, StalledClientDoesNotBlockOtherRequests) {
  obs::serve::HttpServer server;
  server.handle("/ping", [](const obs::serve::HttpRequest&) {
    return obs::serve::HttpResponse{200, "text/plain", "pong\n", {}};
  });
  const Result<std::uint16_t> port = server.start(0);
  ASSERT_TRUE(port.ok()) << port.error().message;

  // A peer that opens a connection, dribbles half a request line, and
  // goes silent. With the serial accept loop this wedged the server
  // for the full recv (forever, pre-timeout).
  const int stalled = connect_raw(port.value());
  ASSERT_GE(stalled, 0);
  (void)::send(stalled, "GET /pi", 7, 0);

  // Requests on OTHER connections must be answered while the stalled
  // one sits there (concurrent connection workers).
  for (int i = 0; i < 3; ++i) {
    const std::string response = http_get(port.value(), "/ping");
    EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos) << response;
    EXPECT_NE(response.find("pong"), std::string::npos);
  }
  ::close(stalled);
  server.stop();
}

TEST(HttpRobustness, SilentPeerIsTimedOutWithin408) {
  obs::serve::HttpServer server;
  server.set_io_timeout_ms(200);  // keep the test fast
  server.handle("/ping", [](const obs::serve::HttpRequest&) {
    return obs::serve::HttpResponse{200, "text/plain", "pong\n", {}};
  });
  const Result<std::uint16_t> port = server.start(0);
  ASSERT_TRUE(port.ok()) << port.error().message;

  const auto start = std::chrono::steady_clock::now();
  const int fd = connect_raw(port.value());
  ASSERT_GE(fd, 0);
  (void)::send(fd, "GET /ping HTT", 13, 0);  // never finishes
  // The server must close the connection with 408 after its I/O
  // timeout, not hold the worker hostage.
  std::string response;
  char buffer[1024];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_NE(response.find("HTTP/1.1 408"), std::string::npos) << response;
  // Watchdog bound: one timeout period plus slack, nowhere near a hang.
  EXPECT_LT(elapsed, 5.0);
  server.stop();
}

TEST(HttpRobustness, StopJoinsPromptlyWhileConnectionMidRecv) {
  obs::serve::HttpServer server;
  // Deliberately long I/O timeout: a prompt stop() below proves the
  // fd shutdown path works, not that a timeout expired.
  server.set_io_timeout_ms(30000);
  server.handle("/ping", [](const obs::serve::HttpRequest&) {
    return obs::serve::HttpResponse{200, "text/plain", "pong\n", {}};
  });
  const Result<std::uint16_t> port = server.start(0);
  ASSERT_TRUE(port.ok()) << port.error().message;

  const int stalled = connect_raw(port.value());
  ASSERT_GE(stalled, 0);
  (void)::send(stalled, "GET /", 5, 0);
  // Give the accept loop a beat to hand the fd to a worker, which then
  // blocks in recv waiting for the rest of the request.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const auto start = std::chrono::steady_clock::now();
  server.stop();  // must shut the active connection down and join
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed, 5.0);
  EXPECT_FALSE(server.running());
  ::close(stalled);
}

TEST(HttpRobustness, PostBodyRoundTripsAndOversizeIsRejected) {
  obs::serve::HttpServer server;
  server.handle("/echo", [](const obs::serve::HttpRequest& request) {
    return obs::serve::HttpResponse{200, "text/plain",
                                    request.method + ":" + request.body,
                                    {}};
  });
  const Result<std::uint16_t> port = server.start(0);
  ASSERT_TRUE(port.ok()) << port.error().message;

  const std::string echoed =
      http_post(port.value(), "/echo", "hello body");
  EXPECT_NE(echoed.find("HTTP/1.1 200"), std::string::npos) << echoed;
  EXPECT_NE(echoed.find("POST:hello body"), std::string::npos);

  // Declared body over the 1 MiB cap → 413 without reading it.
  const int fd = connect_raw(port.value());
  ASSERT_GE(fd, 0);
  const std::string oversized =
      "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 3000000\r\n\r\n";
  (void)::send(fd, oversized.data(), oversized.size(), 0);
  std::string response;
  char buffer[1024];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(response.find("HTTP/1.1 413"), std::string::npos) << response;
  server.stop();
}

TEST(HttpRobustness, ConflictingContentLengthsGet400) {
  obs::serve::HttpServer server;
  std::atomic<int> handled{0};
  server.handle("/echo", [&handled](const obs::serve::HttpRequest& request) {
    handled.fetch_add(1);
    return obs::serve::HttpResponse{200, "text/plain", request.body, {}};
  });
  const Result<std::uint16_t> port = server.start(0);
  ASSERT_TRUE(port.ok()) << port.error().message;

  const int fd = connect_raw(port.value());
  ASSERT_GE(fd, 0);
  const std::string request =
      "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n"
      "Content-Length: 40\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
  std::string response;
  char buffer[1024];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos) << response;
  EXPECT_EQ(handled.load(), 0);
  server.stop();
}

TEST(HttpRobustness, PostBodyArrivingInPiecesRoundTrips) {
  obs::serve::HttpServer server;
  std::atomic<int> handled{0};
  server.handle("/echo", [&handled](const obs::serve::HttpRequest& request) {
    handled.fetch_add(1);
    return obs::serve::HttpResponse{200, "application/octet-stream",
                                    request.body, {}};
  });
  const Result<std::uint16_t> port = server.start(0);
  ASSERT_TRUE(port.ok()) << port.error().message;

  // 120 KB of every byte value, CR and LF included.
  std::mt19937 rng(27);
  std::string body(120 * 1024, '\0');
  for (char& c : body) c = static_cast<char>(rng() & 0xFF);
  const std::string head =
      "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n\r\n";

  // Sends `bytes` in pieces of uneven sizes with short pauses between
  // them; the first piece ends inside the head, the second carries the
  // rest of the head and the start of the body.
  const auto send_in_pieces = [](int fd, const std::string& bytes) {
    static constexpr std::size_t kPieces[] = {20, 4000, 1, 9973, 3, 40000,
                                              517, 65536};
    std::size_t sent = 0;
    for (std::size_t k = 0; sent < bytes.size(); ++k) {
      const std::size_t piece =
          std::min(kPieces[k % std::size(kPieces)], bytes.size() - sent);
      for (std::size_t done = 0; done < piece;) {
        const ssize_t n = ::send(fd, bytes.data() + sent + done, piece - done,
                                 MSG_NOSIGNAL);
        if (n <= 0) return;
        done += static_cast<std::size_t>(n);
      }
      sent += piece;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  };
  const auto read_to_eof = [](int fd) {
    std::string response;
    char buffer[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
      if (n <= 0) break;
      response.append(buffer, static_cast<std::size_t>(n));
    }
    return response;
  };

  const int fd = connect_raw(port.value());
  ASSERT_GE(fd, 0);
  send_in_pieces(fd, head + body);
  const std::string echoed = read_to_eof(fd);
  ::close(fd);
  ASSERT_NE(echoed.find("HTTP/1.1 200"), std::string::npos)
      << echoed.substr(0, 200);
  const std::size_t echoed_body = echoed.find("\r\n\r\n");
  ASSERT_NE(echoed_body, std::string::npos);
  EXPECT_TRUE(echoed.compare(echoed_body + 4, std::string::npos, body) == 0)
      << "echoed body differs from the body sent";
  EXPECT_EQ(handled.load(), 1);

  // A body the peer cuts short (half sent, then the write side closed)
  // is dropped before any handler sees it.
  const int cut = connect_raw(port.value());
  ASSERT_GE(cut, 0);
  send_in_pieces(cut, head + body.substr(0, body.size() / 2));
  ::shutdown(cut, SHUT_WR);
  EXPECT_EQ(read_to_eof(cut), "");
  ::close(cut);
  EXPECT_EQ(handled.load(), 1);
  server.stop();
}

TEST(HttpParser, MalformedContentLengthIsDistinctFromAbsent) {
  // A POST declaring "Content-Length: 12abc" must be answered 400, not
  // treated as body-less: the parser's kMalformed/kAbsent distinction
  // is what keeps a misdeclared body from being misread as a pipelined
  // follow-up request. Regression for the tri-state contract; the fuzz
  // harness (fuzz/fuzz_http_request.cpp) checks it on arbitrary bytes.
  using obs::serve::ContentLengthStatus;
  using obs::serve::HeadStatus;
  using obs::serve::ParsedHead;

  const std::string malformed =
      "POST /solve HTTP/1.1\r\nContent-Length: 12abc\r\n\r\n";
  std::size_t declared = 0;
  EXPECT_EQ(obs::serve::parse_content_length(
                malformed, malformed.find("\r\n") + 2,
                malformed.find("\r\n\r\n"), declared),
            ContentLengthStatus::kMalformed);

  ParsedHead head;
  EXPECT_EQ(obs::serve::parse_request_head(
                malformed, malformed.find("\r\n\r\n"), head),
            HeadStatus::kBadContentLength);

  const std::string empty_value =
      "POST /solve HTTP/1.1\r\nContent-Length:   \r\n\r\n";
  EXPECT_EQ(obs::serve::parse_request_head(
                empty_value, empty_value.find("\r\n\r\n"), head),
            HeadStatus::kBadContentLength);

  const std::string absent = "POST /solve HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_EQ(obs::serve::parse_request_head(
                absent, absent.find("\r\n\r\n"), head),
            HeadStatus::kOk);
  EXPECT_EQ(head.content_length, 0u);
}

TEST(HttpParser, ConflictingContentLengthsAreMalformed) {
  // Two Content-Length lines that disagree make the framing invalid
  // (RFC 9112 §6.3): whichever one sized the body, the other would
  // misread the next request. A repeat of the same value is harmless.
  using obs::serve::ContentLengthStatus;
  using obs::serve::HeadStatus;
  using obs::serve::ParsedHead;

  const std::string conflicting =
      "POST /solve HTTP/1.1\r\nContent-Length: 5\r\nHost: x\r\n"
      "content-length: 40\r\n\r\n";
  std::size_t declared = 0;
  EXPECT_EQ(obs::serve::parse_content_length(
                conflicting, conflicting.find("\r\n") + 2,
                conflicting.find("\r\n\r\n"), declared),
            ContentLengthStatus::kMalformed);
  ParsedHead head;
  EXPECT_EQ(obs::serve::parse_request_head(
                conflicting, conflicting.find("\r\n\r\n"), head),
            HeadStatus::kBadContentLength);

  // The same value twice, even spelled with a leading zero, frames the
  // body once.
  const std::string repeated =
      "POST /solve HTTP/1.1\r\nContent-Length: 5\r\n"
      "Content-Length: 005\r\n\r\n";
  ASSERT_EQ(obs::serve::parse_request_head(
                repeated, repeated.find("\r\n\r\n"), head),
            HeadStatus::kOk);
  EXPECT_EQ(head.content_length, 5u);
}

TEST(HttpParser, EmptyRequestTargetIsABadRequestLine) {
  // "GET  HTTP/1.1" (doubled space) and "GET ? HTTP/1.1" both produce
  // an empty path; routing an empty path makes no sense, so the parser
  // must 400 instead of returning kOk. Found by the fuzz harness's
  // non-empty-path invariant.
  using obs::serve::HeadStatus;
  obs::serve::ParsedHead head;
  for (const std::string& line :
       {std::string("GET  HTTP/1.1\r\n\r\n"),
        std::string("GET ? HTTP/1.1\r\n\r\n"),
        std::string("GET ?q=1 HTTP/1.1\r\n\r\n")}) {
    EXPECT_EQ(obs::serve::parse_request_head(
                  line, line.find("\r\n\r\n"), head),
              HeadStatus::kBadRequestLine)
        << line;
  }
  const std::string good = "GET /metrics?raw=1 HTTP/1.1\r\n\r\n";
  ASSERT_EQ(obs::serve::parse_request_head(
                good, good.find("\r\n\r\n"), head),
            HeadStatus::kOk);
  EXPECT_EQ(head.request.path, "/metrics");
  EXPECT_EQ(head.request.query, "raw=1");
}

TEST(HttpRobustness, NotFoundIsPlainAndRoutesLiveOnVarz) {
  obs::serve::TelemetryServer server;
  const Result<std::uint16_t> port = server.start(0);
  ASSERT_TRUE(port.ok()) << port.error().message;

  // The 404 used to echo the whole route table to any probing client.
  const std::string missing = http_get(port.value(), "/definitely-not-here");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);
  EXPECT_EQ(missing.find("/metrics"), std::string::npos) << missing;
  EXPECT_EQ(missing.find("/healthz"), std::string::npos) << missing;

  // The route list moved to the operator surface.
  const std::string varz = http_get(port.value(), "/varz");
  EXPECT_NE(varz.find("\"routes\":["), std::string::npos);
  EXPECT_NE(varz.find("\"/metrics\""), std::string::npos);
  EXPECT_NE(varz.find("\"/healthz\""), std::string::npos);
  server.stop();
}

// ---- /timez: the timeline over live HTTP ----------------------------------

TEST(TelemetryServerTest, TimezAnswers503UntilATimelineIsAttached) {
  obs::serve::TelemetryServer server;
  const Result<std::uint16_t> port = server.start(0);
  ASSERT_TRUE(port.ok()) << port.error().message;
  const std::string timez = http_get(port.value(), "/timez");
  EXPECT_NE(timez.find("HTTP/1.1 503"), std::string::npos);
  EXPECT_NE(timez.find("no timeline configured"), std::string::npos);
  server.stop();
}

/// Tick-mode documents promise byte-stability: a private registry with
/// fixed instrument content, sampled at deterministic request ticks,
/// must render exactly the committed golden fixture — locally via
/// to_json() AND as the /timez response body over a live socket.
TEST(TelemetryServerTest, TimezMatchesGoldenTickDocumentByteForByte) {
  obs::MetricsRegistry registry;
  obs::Timeline::Options options;
  options.capacity = 4;
  options.mode = obs::Timeline::Mode::kTick;
  options.tick_period = 2;
  options.registry = &registry;
  obs::Timeline timeline(options);

  obs::Counter& requests = registry.counter("serve.solve.requests");
  obs::Gauge& entries = registry.gauge("serve.cache.entries");
  obs::Quantiles& latency = registry.quantiles("serve.solve.latency");

  requests.add(3);
  entries.set(1.0);
  latency.record(0.25, 101);
  timeline.note_request();
  timeline.note_request();  // sample at tick 2
  requests.add(5);
  entries.set(2.0);
  latency.record(0.75, 102);
  latency.record(0.5, 103);
  timeline.note_request();
  timeline.note_request();  // sample at tick 4

  const std::string rendered = timeline.to_json();
  // The determinism contract in print: no wall-clock field anywhere.
  EXPECT_EQ(rendered.find("wall"), std::string::npos);

  const std::string path =
      std::string(MECOFF_GOLDEN_DIR) + "/timez_tick.json";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden fixture " << path;
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(rendered, expected.str());

  obs::serve::TelemetryServer server;
  server.set_timeline(&timeline);
  const Result<std::uint16_t> port = server.start(0);
  ASSERT_TRUE(port.ok()) << port.error().message;
  const std::string timez = http_get(port.value(), "/timez");
  EXPECT_NE(timez.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(timez.find("application/json"), std::string::npos);
  const std::size_t body_at = timez.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  // /timez serves the document verbatim — same bytes as the golden.
  EXPECT_EQ(timez.substr(body_at + 4), expected.str());
  server.stop();
}

/// The p99 postmortem loop: a deliberately slow request's correlation
/// id must be recoverable from the window-max exemplar — in the sample
/// the timeline retained and in the /timez document a scrape sees.
TEST(TelemetryServerTest, SlowRequestIdIsRecoverableFromTimezExemplar) {
  obs::MetricsRegistry registry;
  obs::Timeline::Options options;
  options.mode = obs::Timeline::Mode::kManual;
  options.registry = &registry;
  obs::Timeline timeline(options);

  obs::Quantiles& latency = registry.quantiles("serve.solve.latency");
  for (std::uint64_t i = 1; i <= 20; ++i)
    latency.record(0.001 * static_cast<double>(i), 1000 + i);
  latency.record(0.9, 777);  // the slowed request
  latency.record(0.002, 2000);
  timeline.sample_now(22);

  const std::vector<obs::Timeline::Sample> samples = timeline.samples();
  ASSERT_EQ(samples.size(), 1u);
  const obs::MetricsSnapshot::QuantilesValue& point =
      samples.front().quantiles.at("serve.solve.latency");
  EXPECT_DOUBLE_EQ(point.max_value, 0.9);
  EXPECT_EQ(point.max_request_id, 777u);

  obs::serve::TelemetryServer server;
  server.set_timeline(&timeline);
  const Result<std::uint16_t> port = server.start(0);
  ASSERT_TRUE(port.ok()) << port.error().message;
  const std::string timez = http_get(port.value(), "/timez");
  EXPECT_NE(timez.find("\"max_request_id\":777"), std::string::npos);
  server.stop();
}

// ---- serving is observation only ------------------------------------------

mec::MecSystem serve_test_system(std::size_t users) {
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
    p.nodes = 60;
    p.edges = 240;
    p.seed = 4000 + u;
    mec::UserApp app;
    app.graph = graph::netgen_style(p);
    apps.push_back(std::move(app));
  }
  return mec::MecSystem{params, std::move(apps)};
}

TEST(ObsEquivalence, ServingChangesNoPlacementBit) {
  const mec::MecSystem system = serve_test_system(4);
  mec::PipelineOptions opts;
  const mec::OffloadingScheme quiet =
      mec::PipelineOffloader(opts).solve(system);
  obs::serve::TelemetryServer server;
  const Result<std::uint16_t> port = server.start(0);
  ASSERT_TRUE(port.ok());
  // Scrape concurrently with the solve below — a read-only observer.
  const std::string before = http_get(port.value(), "/metrics");
  EXPECT_FALSE(before.empty());
  const mec::OffloadingScheme served =
      mec::PipelineOffloader(opts).solve(system);
  const std::string after = http_get(port.value(), "/metrics");
  EXPECT_FALSE(after.empty());
  server.stop();
  EXPECT_EQ(served, quiet);
}

}  // namespace
}  // namespace mecoff
