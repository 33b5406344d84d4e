#include "serving.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "appmodel/dsl_parser.hpp"
#include "http.hpp"
#include "inputs.hpp"
#include "obs/serve/http_parser.hpp"
#include "parallel/thread_pool.hpp"
#include "replay.hpp"
#include "serve/fingerprint.hpp"
#include "serve/solve_service.hpp"

namespace perfbench {

namespace {

constexpr int kRequestTimeoutMs = 10000;
constexpr double kStartTimeoutS = 30.0;
constexpr double kDrainTimeoutS = 20.0;
/// Requests not yet sent this long after the window are unanswered.
constexpr double kGraceS = 30.0;
constexpr std::size_t kHealthProbes = 200;
/// Minimum requests per latency segment, so that at least 10 lie beyond
/// each segment's p99.
constexpr std::size_t kSegmentSamples = 1000;
/// Length of the untimed open loop before the window.
constexpr double kRampSeconds = 1.5;
/// bench_serve's p99 SLO, the limit every served workload states.
constexpr double kP99LimitMs = 50.0;
/// trace.unexplained_frac above this is flagged.
constexpr double kUnexplainedTolerance = 0.5;

// Offered rates: constants, calibrated once at about a sixth of each
// workload's lowest measured closed-loop capacity (kThreads
// connections) on a shared 4-thread host, whose capacity varied
// twofold over hours; at half of it the queue grew without bound
// whenever the host slowed. See README.md for the calibration runs.
constexpr double kHitRateHz = 250.0;
constexpr double kChurnRateHz = 75.0;

// serve_churn: a Zipf-skewed stream over kChurnApps apps (every 4th
// app at 1000/4912, the rest at 250/1214) into a cache holding
// kChurnCache placements. About 60% of requests miss, so the median
// request is a miss and the median tracks the solver pipeline.
constexpr std::size_t kChurnApps = 400;
constexpr std::size_t kChurnCache = 32;
constexpr double kChurnZipf = 0.9;

constexpr std::size_t kHitApps = 16;
constexpr std::size_t kHitCache = 64;

/// Replayed requests per pass are numbered pass·kPassStride + index.
constexpr std::uint64_t kPassStride = 1000000;
constexpr int kReplayPasses = 5;

const char kBaseApp[] =
    "app base\nfunction ui compute=1 unoffloadable\nfunction w compute=10\n"
    "call ui w data=1\n";

/// A served workload.
struct ServePlan {
  std::vector<ServedApp> apps;
  std::vector<std::uint32_t> warm;  ///< sent one at a time during set-up
  Stream ramp;    ///< open loop sent before the window, checked, not timed
  Stream stream;  ///< the measured open loop
  double rate_hz = 0.0;
  std::size_t cache_capacity = 0;
  std::size_t setups = 1;  ///< set-up repetitions; the median is reported
  /// Percentile of the window's latencies reported as latency_ms.
  double latency_q = 0.5;
};

/// One open-loop request; times in seconds from the window start.
struct Sample {
  double at = 0.0;    ///< scheduled send
  double sent = 0.0;  ///< actual send
  double done = 0.0;  ///< last response byte
  std::uint32_t app = 0;
  int status = 0;     ///< HTTP status, 0 when unanswered
  char source = '?';  ///< cache line: h(it) m(iss) c(oalesced) s(hed) H(edged) d(eadline)
  bool degraded = false;
  bool ok = false;  ///< 200 with the oracle's placement (all-local if degraded)
};

struct ServeRun {
  std::vector<double> setup_s;  ///< per set-up: spawn → banner → warm-up
  std::vector<Sample> samples;  ///< the measured window
  /// Per answered request of the window, in schedule order: scheduled
  /// send to last response byte, and scheduled to actual send.
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  /// The same latencies of the 200 answers served as hits and as misses.
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  std::vector<double> rtt_us;   ///< GET /healthz round trips (probe runs)
  double peak_rss_mb = -1.0;
  std::uint64_t evictions = 0;  ///< /varz scheme_cache (probe runs)
};

/// What the in-process replays of a plan measured.
struct ReplayStats {
  std::vector<std::uint64_t> hits;    ///< recorded requests served as hits
  std::vector<std::uint64_t> misses;  ///< ... and as cold solves
  std::vector<double> hashed_bytes;   ///< per recorded request
  std::vector<StageCounts> counts;    ///< per recorded cold solve
  std::vector<double> greedy_moves;
  std::vector<double> parts;
  /// Per-request replay wall time of the passes after the first, with
  /// span recording on and off (trace.overhead_frac).
  std::vector<double> recorded_us;
  std::vector<double> unrecorded_us;

  /// Whether `request` belongs to a pass that recorded spans.
  [[nodiscard]] static bool recorded(std::uint64_t request) {
    const std::uint64_t pass = request / kPassStride;
    return pass >= 1 && pass <= kReplayPasses && pass % 2 == 1;
  }
};

/// Which request kind trace.unexplained_frac accounts for.
enum class TracedPath { kHit, kMiss };

/// Latency segments of a window of `count` answered requests.
std::size_t latency_segments(std::size_t count) {
  return std::max<std::size_t>(1, count / kSegmentSamples);
}

void check_reply(const HttpReply& reply, const ServedApp& app, Sample& s) {
  s.status = reply.status;
  s.ok = false;
  if (reply.status != 200) return;
  const std::string& body = reply.body;
  const std::size_t eol = body.find('\n');
  if (eol == std::string::npos) return;
  const std::string_view head(body.data(), eol);
  if (head.substr(0, 7) != "cache: ") return;
  const std::string_view source =
      head.substr(7, head.find(' ', 7) == std::string_view::npos
                         ? std::string_view::npos
                         : head.find(' ', 7) - 7);
  if (source == "hit") s.source = 'h';
  else if (source == "miss") s.source = 'm';
  else if (source == "coalesced") s.source = 'c';
  else if (source == "shed") s.source = 's';
  else if (source == "hedged") s.source = 'H';
  else if (source == "deadline") s.source = 'd';
  else return;
  s.degraded = head.find(" degraded") != std::string_view::npos ||
               s.source == 's' || s.source == 'd';
  const std::string_view placement(body.data() + eol + 1,
                                   body.size() - eol - 1);
  s.ok = placement == (s.degraded ? app.all_local : app.expected);
}

std::string describe(const HttpReply& reply) {
  if (reply.status == 0) return "transport error: " + reply.error;
  return "HTTP " + std::to_string(reply.status) + ": " +
         reply.body.substr(0, reply.body.find('\n'));
}

std::vector<std::string> server_argv(const RunOptions& run,
                                     std::size_t cache_capacity) {
  std::vector<std::string> argv{run.cli,
                                "serve-solve",
                                run.work + "/base.dsl",
                                "port=0",
                                "threads=" + std::to_string(kThreads),
                                "shards=" + std::to_string(kThreads),
                                "cache=" + std::to_string(cache_capacity),
                                "threshold=10"};
  for (const std::string& flag : cli_param_flags()) argv.push_back(flag);
  return argv;
}

void stop_server(ServerProcess& server, Report& report) {
  bool wedged = false;
  report.attempted(1);
  if (!server.stop(kDrainTimeoutS, wedged)) {
    report.failed(1, wedged ? "server did not drain on SIGTERM; killed"
                            : "server exited non-zero after SIGTERM");
  } else if (server.output().find("(drained)") == std::string::npos) {
    report.failed(1, "server exited without reporting a drain");
  }
}

/// The open loop: kThreads threads (the caller included) take requests
/// in schedule order, each waits for its request's due time, sends it
/// on a new connection and reads the whole answer. At most kThreads
/// connections are open at once; a request that waits for a free
/// thread is late, and its latency still counts from its due time.
std::vector<Sample> drive(std::uint16_t port, const ServePlan& plan,
                          const Stream& stream) {
  const std::size_t n = stream.at.size();
  std::vector<Sample> samples(n);
  std::atomic<std::size_t> next{0};
  const double window = n == 0 ? 0.0 : stream.at.back();
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point hard_stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(window + kGraceS));
  const auto worker = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      Sample& s = samples[i];
      s.at = stream.at[i];
      s.app = stream.app[i];
      if (Clock::now() > hard_stop) continue;  // unanswered at stop
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(s.at)));
      s.sent = seconds_since(start);
      const HttpReply reply =
          http_exchange(port, plan.apps[s.app].request, kRequestTimeoutMs);
      s.done = seconds_since(start);
      check_reply(reply, plan.apps[s.app], s);
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 1; t < kThreads; ++t) threads.emplace_back(worker);
  worker();
  for (std::thread& t : threads) t.join();
  return samples;
}

std::uint64_t varz_evictions(const std::string& varz) {
  const std::size_t section = varz.find("\"scheme_cache\"");
  if (section == std::string::npos) return 0;
  const std::size_t key = varz.find("\"evictions\":", section);
  if (key == std::string::npos) return 0;
  return std::strtoull(varz.c_str() + key + 12, nullptr, 10);
}

std::string join(const std::vector<std::string>& words) {
  std::string out;
  for (const std::string& w : words) out += (out.empty() ? "" : " ") + w;
  return out;
}

/// Appends the wall time of its scope, in µs, to `out` (if not null).
class RequestTimer {
 public:
  explicit RequestTimer(std::vector<double>* out) : out_(out) {}
  RequestTimer(const RequestTimer&) = delete;
  RequestTimer& operator=(const RequestTimer&) = delete;
  ~RequestTimer() {
    if (out_ != nullptr) out_->push_back(seconds_since(begin_) * 1e6);
  }

 private:
  std::vector<double>* out_;
  Clock::time_point begin_ = Clock::now();
};

/// Spawn the server plan.setups times (each set-up but the last is
/// drained right away), drive plan.stream open-loop against the last
/// one, read its peak RSS and drain it. `probe` adds the traced run's
/// /healthz round trips and /varz read. Every response is checked.
ServeRun serve(const RunOptions& run, const ServePlan& plan, bool probe,
               Report& report) {
#ifdef MECOFF_OBS_DISABLED
  throw Refusal(
      "this build compiles the HTTP server out (MECOFF_OBS=OFF); a served "
      "run needs it");
#endif
  ServeRun out;
  const std::string base = run.work + "/base.dsl";
  {
    std::ofstream file(base);
    file << kBaseApp;
    if (!file) throw std::runtime_error("cannot write " + base);
  }
  const std::vector<std::string> argv = server_argv(run, plan.cache_capacity);
  Report::note("server: " + join(argv));

  std::unique_ptr<ServerProcess> server;
  for (std::size_t s = 0; s < plan.setups; ++s) {
    auto process = std::make_unique<ServerProcess>();
    const Clock::time_point begin = Clock::now();
    std::string error;
    if (!process->start(argv, run.work + "/server.stderr", kStartTimeoutS,
                        error))
      throw std::runtime_error(error);
    for (const std::uint32_t a : plan.warm) {
      const HttpReply reply =
          http_exchange(process->port(), plan.apps[a].request, kRequestTimeoutMs);
      Sample sample;
      check_reply(reply, plan.apps[a], sample);
      report.attempted(1);
      if (!sample.ok || sample.source != 'm')
        report.failed(1, "set-up request for app " + std::to_string(a) +
                             ": " + describe(reply));
    }
    out.setup_s.push_back(seconds_since(begin));
    if (s + 1 < plan.setups)
      stop_server(*process, report);
    else
      server = std::move(process);
  }

  // The ramp lets the fresh server's threads and heap reach steady
  // state: without it the first second of the window runs several
  // times slower and dominates p99.
  for (const Sample& s : drive(server->port(), plan, plan.ramp)) {
    report.attempted(1);
    if (!s.ok) report.failed(1, "ramp request failed (HTTP " +
                                    std::to_string(s.status) + ")");
  }
  const HostCpu cpu = read_host_cpu();
  out.samples = drive(server->port(), plan, plan.stream);
  note_host_cpu(cpu, read_host_cpu());
  std::size_t sent = 0;
  for (const Sample& s : out.samples) {
    report.attempted(1);
    if (s.status != 0) {
      ++sent;
      const double ms = (s.done - s.at) * 1e3;
      out.latency_ms.push_back(ms);
      out.late_ms.push_back((s.sent - s.at) * 1e3);
      if (s.status == 200 && s.source == 'h') out.hit_ms.push_back(ms);
      if (s.status == 200 && s.source == 'm') out.miss_ms.push_back(ms);
    }
    if (!s.ok)
      report.failed(1, s.status == 0 ? "request unanswered"
                                     : "wrong or failed answer (HTTP " +
                                           std::to_string(s.status) + ")");
  }

  if (probe) {
    const std::string health = get_request("/healthz");
    for (std::size_t i = 0; i < kHealthProbes; ++i) {
      const Clock::time_point begin = Clock::now();
      const HttpReply reply =
          http_exchange(server->port(), health, kRequestTimeoutMs);
      out.rtt_us.push_back(seconds_since(begin) * 1e6);
      report.attempted(1);
      if (reply.status != 200) report.failed(1, "/healthz: " + describe(reply));
    }
    const HttpReply varz =
        http_exchange(server->port(), get_request("/varz"), kRequestTimeoutMs);
    report.attempted(1);
    if (varz.status != 200) report.failed(1, "/varz: " + describe(varz));
    out.evictions = varz_evictions(varz.body);
  }

  out.peak_rss_mb = server->peak_rss_mb();
  report.attempted(1);
  if (out.peak_rss_mb <= 0.0) report.failed(1, "cannot read server VmHWM");
  stop_server(*server, report);

  // The server's own count must equal what this run sent it.
  const std::string expect = "serve-solve: " +
                             std::to_string(plan.warm.size() +
                                            plan.ramp.at.size() + sent) +
                             " requests,";
  report.attempted(1);
  if (server->output().find(expect) == std::string::npos)
    report.failed(1, "server request count differs from requests sent");
  return out;
}

/// Replay plan.warm followed by plan.stream in process, one request at a
/// time, against a SolveService configured like the CLI: the parse /
/// extract / fingerprint / solve calls of the /solve handler, and on
/// each cold solve PipelineOffloader::solve plus its solver stages. Five
/// passes alternate span recording on and off; the first runs until
/// `budget_s` and fixes the request count of the rest.
ReplayStats replay_serving(const ServePlan& plan, Tracer& tracer,
                           double budget_s, Report& report) {
  ReplayStats stats;
  std::vector<std::uint32_t> list = plan.warm;
  list.insert(list.end(), plan.stream.app.begin(), plan.stream.app.end());
  std::vector<double> hashed(plan.apps.size(), -1.0);
  parallel::ThreadPool pool(kThreads);
  const std::size_t min_requests = plan.warm.size() + 16;
  std::size_t count = list.size();

  for (int pass = 0; pass < kReplayPasses; ++pass) {
    const bool recording = pass % 2 == 0;
    tracer.set_recording(recording);
    serve::SolveServiceOptions options;
    options.pool = &pool;
    options.shards = kThreads;
    options.cache.capacity = plan.cache_capacity;
    options.solver = cli_solver_options();
    serve::SolveService service(options);
    const std::uint64_t base = static_cast<std::uint64_t>(pass + 1) * kPassStride;
    const Clock::time_point begin = Clock::now();
    std::size_t i = 0;
    for (; i < count; ++i) {
      if (pass == 0 && i >= min_requests && seconds_since(begin) > budget_s)
        break;
      const std::uint32_t a = list[i];
      const ServedApp& app = plan.apps[a];
      const std::uint64_t rid = base + i;
      report.attempted(1);
      const RequestTimer timer(pass == 0 ? nullptr
                               : recording ? &stats.recorded_us
                                           : &stats.unrecorded_us);
      const SpanScope root(tracer, "serve.request", -1, rid);

      const obs::serve::HeadStatus head_status = [&] {
        const SpanScope span(tracer, "obs_serve.parse_head", root.id(), rid);
        obs::serve::ParsedHead head;
        const obs::serve::HeadStatus st =
            obs::serve::parse_request_head(app.request, app.header_end, head);
        return st == obs::serve::HeadStatus::kOk &&
                       head.content_length == app.body_bytes
                   ? st
                   : obs::serve::HeadStatus::kBadRequestLine;
      }();
      if (head_status != obs::serve::HeadStatus::kOk) {
        report.failed(1, "replay: request head does not parse");
        continue;
      }
      const std::string body = app.request.substr(app.header_end + 4);
      const auto parsed = [&] {
        const SpanScope span(tracer, "appmodel.parse_dsl", root.id(), rid);
        return appmodel::parse_app_dsl(body);
      }();
      if (!parsed.ok()) {
        report.failed(1, "replay: body does not parse");
        continue;
      }
      serve::SolveRequest request;
      request.params = cli_params();
      request.user = [&] {
        const SpanScope span(tracer, "appmodel.extract", root.id(), rid);
        return extract_user(parsed.value());
      }();
      {
        const SpanScope span(tracer, "serve.fingerprint", root.id(), rid);
        (void)serve::fingerprint_request(request.user, request.params);
      }
      if (hashed[a] < 0.0) {
        const std::string text =
            serve::canonical_request_text(request.user, request.params);
        // One canonical line per hashed 8-byte word.
        hashed[a] = 8.0 * static_cast<double>(
                              std::count(text.begin(), text.end(), '\n'));
      }

      Interval solve_time;
      solve_time.start = Clock::now();
      const auto response = service.solve(request);
      solve_time.end = Clock::now();
      if (!response.ok() || response.value().degraded ||
          response.value().placement != app.reference) {
        report.failed(1, "replay: placement differs from the oracle");
        continue;
      }
      const serve::SolveSource source = response.value().source;
      const bool hit = source == serve::SolveSource::kCacheHit;
      const bool miss = source == serve::SolveSource::kSolved;
      // Named by outcome, known only once the call has returned.
      const int solve_span = tracer.record(
          hit ? "serve.solve_hit" : miss ? "serve.solve_miss" : "serve.solve_other",
          root.id(), rid, solve_time);
      if (recording) {
        if (hit) stats.hits.push_back(rid);
        if (miss) stats.misses.push_back(rid);
        stats.hashed_bytes.push_back(hashed[a]);
      }
      if (!miss) continue;

      // A cold solve: the service runs PipelineOffloader::solve as a
      // task on its pool; the replay times the same call the same way.
      const mec::MecSystem system{request.params, {request.user}};
      mec::PipelineOptions solver = cli_solver_options();
      solver.pool = &pool;
      mec::PipelineOffloader offloader(solver);
      mec::OffloadingScheme scheme;
      tracer.record("mec.solve", solve_span, rid, run_on_pool(pool, [&] {
                      scheme = offloader.solve(system);
                    }));
      if (scheme.placement.front() != app.reference) {
        report.failed(1, "replay: PipelineOffloader placement differs");
        continue;
      }
      int serial_span = -1;
      const mec::OffloadingScheme serial = [&] {
        const SpanScope span(tracer, "mec.solve_serial", root.id(), rid);
        serial_span = span.id();
        mec::PipelineOffloader serial_offloader(cli_solver_options());
        return serial_offloader.solve(system);
      }();
      if (serial.placement.front() != app.reference)
        report.failed(1, "replay: serial placement differs");
      const StageCounts counts = replay_stages(
          tracer, request.user, cli_solver_options(), pool, serial_span,
          root.id(), rid);
      if (recording) {
        stats.counts.push_back(counts);
        stats.greedy_moves.push_back(
            static_cast<double>(offloader.last_stats().greedy_moves));
        stats.parts.push_back(
            static_cast<double>(offloader.last_stats().num_parts));
      }
    }
    if (pass == 0) count = i;
  }
  tracer.set_recording(true);
  Report::note("replay: " + std::to_string(count) + " requests per pass, " +
               std::to_string(kReplayPasses) + " passes");
  return stats;
}

/// Emit the serving-side per-layer metrics (obs_serve, appmodel, serve,
/// gen, http, trace) of a traced served run.
void emit_serving_metrics(const ServePlan& plan, const ServeRun& run,
                          const Tracer& tracer, const ReplayStats& replay,
                          TracedPath path, Report& report) {
  const auto in = [](const std::vector<std::uint64_t>& ids) {
    return [&ids](std::uint64_t rid) {
      return std::binary_search(ids.begin(), ids.end(), rid);
    };
  };
  const RequestFilter all = &ReplayStats::recorded;
  const RequestFilter hits = in(replay.hits);
  const RequestFilter misses = in(replay.misses);

  std::size_t answered = 0, busy = 0, coalesced = 0;
  std::vector<double> body_kb;
  for (const Sample& s : run.samples) {
    body_kb.push_back(static_cast<double>(plan.apps[s.app].body_bytes) / 1024.0);
    if (s.status == 503) ++busy;
    if (s.status != 200) continue;
    ++answered;
    if (s.source == 'c') ++coalesced;
  }
  const std::size_t hit = run.hit_ms.size();
  const std::size_t miss = run.miss_ms.size();

  const double rtt = median(run.rtt_us);
  report.metric("obs_serve.rtt_us", rtt, "us");
  report.metric("obs_serve.parse_head_us",
                layer_us(tracer, "obs_serve.parse_head", all), "us");
  report.metric("obs_serve.busy_503", static_cast<double>(busy), "count");
  report.metric("appmodel.parse_dsl_us",
                layer_us(tracer, "appmodel.parse_dsl", all), "us");
  report.metric("appmodel.body_kb", median(body_kb), "KB");
  report.metric("appmodel.extract_us",
                layer_us(tracer, "appmodel.extract", all), "us");
  report.metric("serve.fingerprint_us",
                layer_us(tracer, "serve.fingerprint", all), "us");
  report.metric("serve.hashed_bytes", median(replay.hashed_bytes), "bytes");
  report.metric("serve.solve_hit_us",
                layer_us(tracer, "serve.solve_hit", all), "us");
  report.metric("serve.solve_miss_us",
                layer_us(tracer, "serve.solve_miss", all), "us");
  report.metric("serve.dispatch_us",
                layer_us(tracer, "serve.solve_miss", all, /*self=*/true), "us");
  report.metric("serve.hit_ratio",
                answered == 0 ? 0.0
                              : static_cast<double>(hit) /
                                    static_cast<double>(answered),
                "ratio");
  report.metric("serve.misses", static_cast<double>(miss), "count");
  report.metric("serve.coalesced", static_cast<double>(coalesced), "count");
  report.metric("serve.evictions", static_cast<double>(run.evictions), "count");
  report.metric("gen.late_p99_ms", percentile(run.late_ms, 0.99), "ms");
  report.metric("http.latency_p99_ms",
                segmented_percentile(run.latency_ms,
                                     latency_segments(run.latency_ms.size()),
                                     0.99),
                "ms");
  report.metric("trace.overhead_frac",
                replay.unrecorded_us.empty()
                    ? 0.0
                    : median(replay.recorded_us) /
                              median(replay.unrecorded_us) -
                          1.0,
                "ratio");

  // Blocking path of one request: the /healthz round trip stands for
  // accept, hand-off and response write; the replayed calls cover the
  // handler. The rest of the HTTP median is unexplained.
  const bool on_hit = path == TracedPath::kHit;
  const RequestFilter& kind = on_hit ? hits : misses;
  const double layers_us =
      rtt + layer_us(tracer, "obs_serve.parse_head", kind) +
      layer_us(tracer, "appmodel.parse_dsl", kind) +
      layer_us(tracer, "appmodel.extract", kind) +
      layer_us(tracer, on_hit ? "serve.solve_hit" : "serve.solve_miss", kind);
  // Against the percentile latency_ms reports.
  const double http_ms =
      percentile(on_hit ? run.hit_ms : run.miss_ms, plan.latency_q);
  const double unexplained =
      http_ms > 0.0 ? 1.0 - layers_us / 1e3 / http_ms : 0.0;
  report.metric("trace.unexplained_frac", unexplained, "ratio");
  Report::note(std::string("trace accounting (") + (on_hit ? "hit" : "miss") +
               " path): layers " + std::to_string(layers_us / 1e3) +
               " ms of HTTP p" +
               std::to_string(static_cast<int>(plan.latency_q * 100)) + " " +
               std::to_string(http_ms) + " ms; " +
               (unexplained > kUnexplainedTolerance
                    ? "FLAG: unexplained share above tolerance "
                    : "unexplained share within tolerance ") +
               std::to_string(kUnexplainedTolerance));
}

/// serve_hit's plan with a measured window of `seconds`.
ServePlan hit_plan(const RunOptions& run, double seconds) {
  ServePlan plan;
  std::vector<AppSpec> specs;
  for (std::size_t a = 0; a < kHitApps; ++a)
    specs.push_back({{250, 1214}, 500 + 1000 * run.seed + a});
  plan.apps = build_apps(specs);
  for (std::uint32_t a = 0; a < kHitApps; ++a) plan.warm.push_back(a);
  plan.rate_hz = kHitRateHz;
  plan.stream = poisson_stream(run.seed * 0x9E3779B97F4A7C15ULL + 1,
                               plan.rate_hz, seconds, [](mecoff::Rng& rng) {
                                 return static_cast<std::uint32_t>(
                                     rng.index(kHitApps));
                               });
  plan.ramp = poisson_stream(run.seed * 0x9E3779B97F4A7C15ULL + 11,
                             plan.rate_hz, kRampSeconds, [](mecoff::Rng& rng) {
                               return static_cast<std::uint32_t>(
                                   rng.index(kHitApps));
                             });
  plan.cache_capacity = kHitCache;
  plan.setups = 5;
  // A hit is one request's parse on one server thread. On the shared
  // host, the vCPU it lands on runs it at one of two speeds, and the
  // share of slow requests moved from run to run (whole-window p50
  // 2.5-2.9 ms); p25 stays among the fast ones (1.86-1.94 ms).
  plan.latency_q = 0.25;
  return plan;
}

ServePlan churn_plan(const RunOptions& run) {
  ServePlan plan;
  std::vector<AppSpec> specs;
  for (std::size_t a = 0; a < kChurnApps; ++a) {
    const bench::PaperScale scale =
        a % 4 == 3 ? bench::PaperScale{1000, 4912} : bench::PaperScale{250, 1214};
    specs.push_back({scale, 100000 + 1000 * run.seed + a});
  }
  plan.apps = build_apps(specs);
  // Set-up fills the cache with the most popular apps.
  for (std::uint32_t a = 0; a < kChurnCache; ++a) plan.warm.push_back(a);
  plan.rate_hz = kChurnRateHz;
  const Zipf zipf(kChurnApps, kChurnZipf);
  plan.stream = poisson_stream(run.seed * 0x9E3779B97F4A7C15ULL + 2,
                               plan.rate_hz, run.seconds,
                               [&zipf](mecoff::Rng& rng) { return zipf(rng); });
  plan.ramp = poisson_stream(run.seed * 0x9E3779B97F4A7C15ULL + 12,
                             plan.rate_hz, kRampSeconds,
                             [&zipf](mecoff::Rng& rng) { return zipf(rng); });
  plan.cache_capacity = kChurnCache;
  plan.setups = 3;
  return plan;
}

void note_plan(const ServePlan& plan) {
  Report::note("open loop: " + std::to_string(plan.stream.at.size()) +
               " Poisson arrivals at " + std::to_string(plan.rate_hz) +
               " req/s over " + std::to_string(plan.apps.size()) +
               " apps, cache " + std::to_string(plan.cache_capacity) + ", " +
               std::to_string(kThreads) + " connections");
}

void emit_end_to_end(const ServePlan& plan, const ServeRun& run,
                     Report& report) {
  const std::size_t n = run.samples.size();
  std::size_t answered = 0, full = 0, degraded = 0, failed = 0;
  double last_done = 0.0;
  double objective = 0.0;
  for (const Sample& s : run.samples) {
    objective += plan.apps[s.app].objective;
    if (!s.ok) ++failed;
    if (s.status == 0) continue;
    last_done = std::max(last_done, s.done);
    if (s.status == 200) ++answered;
    if (s.ok && s.degraded) ++degraded;
    if (s.ok && !s.degraded) ++full;
  }
  // p25 and p50 are the whole window's; a burst of host stalls moves a
  // minority of samples, which cannot move them far. The tail can: p99
  // is the median over segments of each segment's p99.
  const std::size_t count = run.latency_ms.size();
  const std::size_t segments = latency_segments(count);
  const double p25 = percentile(run.latency_ms, 0.25);
  const double p50 = percentile(run.latency_ms, 0.50);
  const double p99 = segmented_percentile(run.latency_ms, segments, 0.99);
  const double window_p99 = percentile(run.latency_ms, 0.99);
  if (p25 > p50 || p50 > window_p99)
    throw std::runtime_error("percentile order violated");
  Report::note("latency samples: " + std::to_string(count) + "; p25 " +
               std::to_string(p25) + " ms, p50 " + std::to_string(p50) +
               " ms; p99 " + std::to_string(p99) + " ms, the median over " +
               std::to_string(segments) + " segments of at least " +
               std::to_string(count / segments) + " (whole-window p99 " +
               std::to_string(window_p99) + " ms)");
  Report::note("hits: " + std::to_string(run.hit_ms.size()) + ", p50 " +
               std::to_string(median(run.hit_ms)) + " ms; misses: " +
               std::to_string(run.miss_ms.size()) + ", p50 " +
               std::to_string(median(run.miss_ms)) + " ms");
  Report::note(std::string("p99 limit ") + std::to_string(kP99LimitMs) +
               " ms: " + (p99 <= kP99LimitMs ? "met" : "MISSED"));
  const double frac = n == 0 ? 0.0 : 1.0 / static_cast<double>(n);
  Report::note("failed_frac " + std::to_string(failed * frac) +
               " ratio, degraded_frac " + std::to_string(degraded * frac) +
               " ratio, generator late p99 " +
               std::to_string(percentile(run.late_ms, 0.99)) + " ms");

  report.metric("setup_s", median(run.setup_s), "s");
  report.metric("latency_ms", percentile(run.latency_ms, plan.latency_q), "ms");
  report.metric("throughput_rps",
                last_done > 0.0 ? static_cast<double>(answered) / last_done : 0.0,
                "req/s");
  report.metric("full_quality_frac",
                n == 0 ? 0.0
                       : static_cast<double>(full) / static_cast<double>(n),
                "ratio");
  report.metric("objective", objective * frac, "E_plus_T");
  report.metric("peak_rss_mb", run.peak_rss_mb, "MB");
}

/// The served half of a traced run: the HTTP window with its probes,
/// the in-process replay into `tracer`, and the serving-layer metrics.
ReplayStats trace_serving(const RunOptions& run, const ServePlan& plan,
                          Tracer& tracer, TracedPath path, Report& report) {
  const ServeRun served = serve(run, plan, /*probe=*/true, report);
  ReplayStats replay = replay_serving(plan, tracer, 0.1 * run.seconds, report);
  emit_serving_metrics(plan, served, tracer, replay, path, report);
  return replay;
}

}  // namespace

void run_served_workload(const RunOptions& run, Report& report) {
  const bool hit = run.workload == "serve_hit";
  const ServePlan plan = hit ? hit_plan(run, run.seconds) : churn_plan(run);
  note_plan(plan);
  if (!run.trace) {
    emit_end_to_end(plan, serve(run, plan, /*probe=*/false, report), report);
    return;
  }
  Tracer tracer(true);
  const ReplayStats replay = trace_serving(
      run, plan, tracer, hit ? TracedPath::kHit : TracedPath::kMiss, report);
  const RequestFilter misses = [&replay](std::uint64_t rid) {
    return std::binary_search(replay.misses.begin(), replay.misses.end(), rid);
  };
  emit_stage_metrics(tracer, misses, replay.counts, replay.greedy_moves,
                     replay.parts, report);
  write_spans(run, tracer);
}

void trace_serve_hit(const RunOptions& run, double seconds, Tracer& tracer,
                     Report& report) {
  const ServePlan plan = hit_plan(run, seconds);
  note_plan(plan);
  (void)trace_serving(run, plan, tracer, TracedPath::kHit, report);
}

}  // namespace perfbench
