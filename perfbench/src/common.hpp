// Shared pieces of the benchmark harness: run options, the wall clock,
// nearest-rank percentiles, host contention and the result report.
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace mecoff {}

namespace perfbench {

// The harness drives the library from outside; its modules (mec, serve,
// graph, ...) are spelled without the project prefix.
using namespace mecoff;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from,
                                            Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

[[nodiscard]] inline double seconds_since(Clock::time_point from) {
  return seconds_between(from, Clock::now());
}

/// Host parallelism the benchmark is written for: pool threads, shards,
/// load-generator threads and open connections.
inline constexpr std::size_t kThreads = 4;

/// Thrown when a workload cannot run in this build; the harness exits
/// non-zero without printing a result.
struct Refusal : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cli;   ///< mecoff_cli binary
  std::string work;  ///< working directory for server files and spans
};

/// Nearest-rank percentile: the ceil(q·n)-th smallest sample (1-based),
/// q in (0, 1]. Sorts a copy; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> samples, double q);
[[nodiscard]] inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

/// Percentile q of a timed window's samples, in time order: the window
/// is cut into `segments` consecutive parts of near-equal size (at most
/// one per sample), and the median over the parts of each part's
/// nearest-rank percentile is the figure. A slow stretch of a run (a
/// host stall) cannot move it on its own.
[[nodiscard]] double segmented_percentile(const std::vector<double>& samples,
                                          std::size_t segments, double q);

/// Host CPU time from the first line of /proc/stat, in clock ticks.
struct HostCpu {
  double steal = 0.0;
  double iowait = 0.0;
  double total = 0.0;
};
[[nodiscard]] HostCpu read_host_cpu();

/// Share of the host's CPU time stolen by other tenants of the machine
/// above which a measured window is marked UNRESOLVED: at that level
/// every latency moves, whatever the code under test did.
inline constexpr double kStealLimit = 0.05;

/// Print the steal and iowait shares of the host's CPU time between two
/// readings taken around a measured window, marked UNRESOLVED when the
/// steal share exceeds kStealLimit.
void note_host_cpu(const HostCpu& from, const HostCpu& to);

/// What one run prints: human-readable lines first, then the metrics as
/// the final JSON line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A human-readable line (printed immediately).
  static void note(const std::string& line);

  /// The count of checked operations and how many failed; any failure
  /// makes the run incorrect.
  void attempted(std::uint64_t n) { attempted_ += n; }
  void failed(std::uint64_t n, const std::string& why);
  [[nodiscard]] bool correct() const { return failed_ == 0 && attempted_ > 0; }

  /// Print the metric table and the final JSON line.
  void finish() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench
