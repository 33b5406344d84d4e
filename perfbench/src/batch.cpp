#include "batch.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <memory>

#include "mec/costs.hpp"
#include "mec/offloader.hpp"
#include "parallel/thread_pool.hpp"
#include "replay.hpp"
#include "serving.hpp"
#include "support/workloads.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kUsers = 1000;
constexpr std::size_t kDistinct = 64;
constexpr std::size_t kSetups = 5;
constexpr std::size_t kMinSolves = 3;
constexpr std::size_t kReplayReps = 3;
/// Replayed multi-user solves are numbered from here.
constexpr std::uint64_t kBatchRequest = 100000000;

mec::PipelineOptions batch_options(parallel::ThreadPool* pool) {
  mec::PipelineOptions options;
  options.propagation = bench::paper_propagation();
  options.identical_user_period = kDistinct;
  options.pool = pool;
  return options;
}

double process_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void traced_batch(const RunOptions& run, const mec::MecSystem& system,
                  const mec::OffloadingScheme& reference, Report& report) {
  Tracer tracer(true);
  // This workload has no serving layer, but a traced result lists every
  // per-layer metric: the serving layers' figures are serve_hit's, from
  // its plan served for a third of the window.
  trace_serve_hit(run, run.seconds / 3, tracer, report);

  // The multi-user solve, pooled and serial; the serial one has each
  // distinct user's replayed stages as children.
  parallel::ThreadPool pool(kThreads);
  std::vector<StageCounts> counts;
  std::vector<double> greedy_moves;
  std::vector<double> parts;
  const auto check = [&](const mec::OffloadingScheme& scheme) {
    report.attempted(1);
    if (scheme != reference) report.failed(1, "replayed scheme differs");
  };
  for (std::size_t rep = 0; rep < kReplayReps; ++rep) {
    const std::uint64_t rid = kBatchRequest + rep;
    mec::PipelineOffloader pooled(batch_options(&pool));
    check([&] {
      const SpanScope span(tracer, "mec.solve", -1, rid);
      return pooled.solve(system);
    }());
    greedy_moves.push_back(static_cast<double>(pooled.last_stats().greedy_moves));
    parts.push_back(static_cast<double>(pooled.last_stats().num_parts));
    int serial_span = -1;
    check([&] {
      const SpanScope span(tracer, "mec.solve_serial", -1, rid);
      serial_span = span.id();
      mec::PipelineOffloader serial(batch_options(nullptr));
      return serial.solve(system);
    }());
    StageCounts total;
    for (std::size_t u = 0; u < kDistinct; ++u)
      total += replay_stages(tracer, system.users[u], batch_options(nullptr),
                             pool, serial_span, -1, rid);
    counts.push_back(total);
  }
  emit_stage_metrics(
      tracer, [](std::uint64_t rid) { return rid >= kBatchRequest; }, counts,
      greedy_moves, parts, report);
  write_spans(run, tracer);
}

}  // namespace

void run_batch_workload(const RunOptions& run, Report& report) {
  const std::uint64_t base = 700 + 1000 * run.seed;
  const mec::MecSystem system =
      bench::make_multiuser_system(kUsers, kDistinct, base);
  Report::note("system: " + std::to_string(kUsers) + " users over " +
               std::to_string(kDistinct) +
               " distinct 1000/4912 graphs, multiuser_params, "
               "paper_propagation, identical_user_period=" +
               std::to_string(kDistinct) + ", pool of " +
               std::to_string(kThreads));

  // Oracle: the pooled scheme must be byte-identical to the serial one.
  const Clock::time_point serial_begin = Clock::now();
  mec::PipelineOffloader serial(batch_options(nullptr));
  const mec::OffloadingScheme reference = serial.solve(system);
  const double serial_s = seconds_since(serial_begin);
  report.attempted(1);
  if (!reference.valid_for(system))
    report.failed(1, "serial scheme is not valid for the system");
  if (run.trace) {
    traced_batch(run, system, reference, report);
    return;
  }

  std::size_t wrong = 0;
  const auto check = [&](const mec::OffloadingScheme& scheme) {
    report.attempted(1);
    if (scheme == reference && scheme.valid_for(system)) return;
    ++wrong;
    report.failed(1, "pooled scheme differs from the serial one");
  };
  std::unique_ptr<parallel::ThreadPool> pool;
  std::unique_ptr<mec::PipelineOffloader> offloader;
  std::vector<double> setup_s;
  for (std::size_t s = 0; s < kSetups; ++s) {
    offloader.reset();
    pool.reset();
    const Clock::time_point begin = Clock::now();
    pool = std::make_unique<parallel::ThreadPool>(kThreads);
    offloader =
        std::make_unique<mec::PipelineOffloader>(batch_options(pool.get()));
    check(offloader->solve(system));
    setup_s.push_back(seconds_since(begin));
  }

  std::vector<double> solve_ms;
  const std::size_t wrong_before = wrong;
  const HostCpu cpu = read_host_cpu();
  const Clock::time_point window = Clock::now();
  while (seconds_since(window) < run.seconds || solve_ms.size() < kMinSolves) {
    const Clock::time_point begin = Clock::now();
    const mec::OffloadingScheme scheme = offloader->solve(system);
    solve_ms.push_back(seconds_since(begin) * 1e3);
    check(scheme);
  }
  const double window_s = seconds_since(window);
  note_host_cpu(cpu, read_host_cpu());
  const auto solves = static_cast<double>(solve_ms.size());
  // Far fewer than 1000 solves fit in a window, so no percentile above
  // the median has ten samples beyond it; the slowest solve is printed.
  Report::note("solves: " + std::to_string(solve_ms.size()) + " in " +
               std::to_string(window_s) + " s, median " +
               std::to_string(median(solve_ms) / 1e3) +
               " s (solve_s), slowest " +
               std::to_string(percentile(solve_ms, 1.0)) +
               " ms; serial reference solve " + std::to_string(serial_s) +
               " s; failed_frac " +
               std::to_string(static_cast<double>(wrong - wrong_before) / solves) +
               " ratio");

  report.metric("setup_s", median(setup_s), "s");
  report.metric("latency_ms", median(solve_ms), "ms");
  report.metric("throughput_rps",
                static_cast<double>(kUsers) * solves / window_s, "req/s");
  report.metric("full_quality_frac",
                (solves - static_cast<double>(wrong - wrong_before)) / solves,
                "ratio");
  report.metric("objective", mec::evaluate(system, reference).objective(),
                "E_plus_T");
  report.metric("peak_rss_mb", process_peak_rss_mb(), "MB");
}

}  // namespace perfbench
