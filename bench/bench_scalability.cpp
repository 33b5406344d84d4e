// Scalability — wall-clock of the full multi-user solve vs. user count,
// and vs. thread count at a fixed user count.
//
// The paper runs 5000 users on Spark; this repo's claim is that the
// replica-class lazy greedy makes the same scale interactive on one
// core, and that the per-user stage (compression + cut) then scales
// with threads on top of that. The first table sweeps users serially
// and checks sub-quadratic growth; the second pins 64 DISTINCT users
// (no identical_user_period, so every user is real work) and sweeps
// pool sizes, checking the pooled schemes stay bit-identical to the
// serial one and reporting the per-stage breakdown from SolveStats. A
// pool of k workers runs k + 1 threads (the caller claims indices too),
// and its row is labelled with that count.
#include <cstdio>
#include <string>
#include <thread>

#include "common/stopwatch.hpp"
#include "common/strings.hpp"
#include "mec/costs.hpp"
#include "support/reporting.hpp"
#include "support/workloads.hpp"

namespace {

using namespace mecoff;
using namespace mecoff::bench;

int run_users_sweep() {
  std::vector<std::vector<std::string>> rows;
  std::vector<double> totals;
  std::vector<std::size_t> counts;
  for (const std::size_t users : {250u, 1000u, 4000u, 16000u}) {
    const mec::MecSystem system =
        make_multiuser_system(users, kMultiuserPoolSize, /*seed=*/77);

    mec::PipelineOptions opts;
    opts.propagation = paper_propagation();
    opts.identical_user_period = kMultiuserPoolSize;
    mec::PipelineOffloader offloader(opts);

    Stopwatch solve_timer;
    const mec::OffloadingScheme scheme = offloader.solve(system);
    const double solve_s = solve_timer.elapsed_seconds();

    Stopwatch eval_timer;
    const mec::SystemCost cost = mec::evaluate(system, scheme);
    const double eval_s = eval_timer.elapsed_seconds();
    (void)cost;

    rows.push_back({std::to_string(users),
                    std::to_string(offloader.last_stats().num_parts),
                    std::to_string(offloader.last_stats().greedy_moves),
                    format_fixed(solve_s, 3) + " s",
                    format_fixed(eval_s, 3) + " s"});
    totals.push_back(solve_s);
    counts.push_back(users);
  }

  print_table("Scalability: full multi-user solve (4 prototype graphs of "
              "1000 functions, replica-class lazy greedy)",
              {"users", "parts", "greedy moves", "solve", "evaluate"},
              rows);

  // Sub-quadratic check across the extreme points: time ratio must be
  // well below the square of the user ratio.
  const double user_ratio = static_cast<double>(counts.back()) /
                            static_cast<double>(counts.front());
  const double time_ratio =
      totals.back() / std::max(totals.front(), 1e-6);
  std::printf("users x%s -> time x%s\n",
              format_fixed(user_ratio, 0).c_str(),
              format_fixed(time_ratio, 1).c_str());
  print_shape_check("solve time grows sub-quadratically in users",
                    time_ratio < user_ratio * user_ratio / 4.0);
  return 0;
}

int run_thread_sweep() {
  // 64 distinct mid-size users: the per-user stage dominates, which is
  // exactly what the parallel solve path is supposed to scale.
  constexpr std::size_t kUsers = 64;
  std::vector<mec::UserApp> users;
  users.reserve(kUsers);
  for (std::size_t u = 0; u < kUsers; ++u)
    users.push_back(make_user(PaperScale{500, 2643}, /*seed=*/900 + u));
  const mec::MecSystem system{multiuser_params(), std::move(users)};

  mec::PipelineOptions opts;
  opts.propagation = paper_propagation();

  const auto solve_row = [&](const char* label, parallel::ThreadPool* pool,
                             double serial_s, mec::OffloadingScheme* out) {
    mec::PipelineOptions run_opts = opts;
    run_opts.pool = pool;
    mec::PipelineOffloader offloader(run_opts);
    Stopwatch timer;
    mec::OffloadingScheme scheme = offloader.solve(system);
    const double solve_s = timer.elapsed_seconds();
    const mec::PipelineOffloader::SolveStats& stats = offloader.last_stats();
    std::vector<std::string> row{
        label,
        format_fixed(solve_s, 3) + " s",
        format_fixed(stats.compress_seconds, 3) + " s",
        format_fixed(stats.cut_seconds, 3) + " s",
        format_fixed(stats.greedy_seconds, 3) + " s",
        serial_s > 0.0 ? format_fixed(serial_s / solve_s, 2) + "x" : "-"};
    if (out != nullptr) *out = std::move(scheme);
    return std::make_pair(row, solve_s);
  };

  mec::OffloadingScheme serial_scheme;
  std::vector<std::vector<std::string>> rows;
  auto [serial_row, serial_s] =
      solve_row("serial", nullptr, 0.0, &serial_scheme);
  rows.push_back(std::move(serial_row));

  constexpr std::size_t kMaxWorkers = 8;
  constexpr std::size_t kMaxThreads = kMaxWorkers + 1;
  bool identical = true;
  double speedup_at_max = 0.0;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    parallel::ThreadPool pool(workers);
    mec::OffloadingScheme scheme;
    const std::string label = std::to_string(workers + 1) +
                              " threads (pool of " +
                              std::to_string(workers) + ")";
    auto [row, solve_s] =
        solve_row(label.c_str(), &pool, serial_s, &scheme);
    rows.push_back(std::move(row));
    identical = identical && (scheme == serial_scheme);
    if (workers == kMaxWorkers) speedup_at_max = serial_s / solve_s;
  }

  print_table("Scalability: 64 distinct users of 500 functions, "
              "serial vs. pooled per-user solve (compress/cut are summed "
              "task seconds; >wall clock when pooled)",
              {"engine", "solve", "compress", "cut", "greedy", "speedup"},
              rows);

  print_shape_check("pooled schemes bit-identical to serial", identical);
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("hardware threads: %u, speedup at %zu threads: %sx\n", cores,
              kMaxThreads, format_fixed(speedup_at_max, 2).c_str());
  // The parallel efficiency claim needs hardware to back it; on smaller
  // hosts the identity check above is the binding assertion.
  const std::string max_threads = std::to_string(kMaxThreads) + " threads";
  if (cores >= kMaxThreads) {
    print_shape_check("solve >= 2x faster with " + max_threads,
                      speedup_at_max >= 2.0);
  } else {
    // Oversubscribing the host's threads costs contention; only guard
    // against a pathological slowdown there.
    print_shape_check(max_threads + " no slower than 0.5x serial "
                      "(low-core host: 2x speedup not enforced)",
                      speedup_at_max >= 0.5);
  }
  return 0;
}

}  // namespace

int main() {
  const int rc = run_users_sweep();
  if (rc != 0) return rc;
  const int rc2 = run_thread_sweep();
  // Registry dump covers both sweeps; compare against SolveStats rows
  // above (the gauges are written from the same doubles, see
  // src/mec/offloader.cpp).
  print_metrics_json("bench_scalability");
  return rc2;
}
