// perfbench_harness — runs one benchmark workload against this build
// and prints its metrics. perfbench/run.py builds and invokes it:
//
//   perfbench_harness --workload <serve_hit|serve_churn|batch_multiuser>
//                     --seed N --seconds S --trace 0|1
//                     --cli <mecoff_cli binary> --work <working dir>
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
// metrics of the traced run. The last line of standard output is the
// JSON result; the exit code is 0 only when every check passed.
#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

#include "batch.hpp"
#include "common.hpp"
#include "serving.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kShownFailures = 20;

std::string number(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(
      std::clamp(std::ceil(q * n), 1.0, n));
  return samples[rank - 1];
}

double segmented_percentile(const std::vector<double>& samples,
                            std::size_t segments, double q) {
  const std::size_t count = samples.size();
  const std::size_t n =
      std::clamp<std::size_t>(segments, 1, std::max<std::size_t>(count, 1));
  std::vector<double> per_segment;
  for (std::size_t k = 0; k < n; ++k) {
    // Part k holds samples [k·count/n, (k+1)·count/n).
    const auto first =
        samples.begin() + static_cast<std::ptrdiff_t>(k * count / n);
    const auto last =
        samples.begin() + static_cast<std::ptrdiff_t>((k + 1) * count / n);
    per_segment.push_back(percentile(std::vector<double>(first, last), q));
  }
  return median(per_segment);
}

HostCpu read_host_cpu() {
  // cpu user nice system idle iowait irq softirq steal [guest ...]; guest
  // time is already counted in user.
  std::ifstream stat("/proc/stat");
  std::string label;
  std::array<double, 8> field{};
  stat >> label;
  for (double& f : field) stat >> f;
  HostCpu cpu;
  if (!stat || label != "cpu") return cpu;
  for (const double f : field) cpu.total += f;
  cpu.iowait = field[4];
  cpu.steal = field[7];
  return cpu;
}

void note_host_cpu(const HostCpu& from, const HostCpu& to) {
  const double total = to.total - from.total;
  if (total <= 0.0) {
    Report::note("host: /proc/stat unreadable; host contention unknown");
    return;
  }
  const double steal = (to.steal - from.steal) / total;
  Report::note("host: steal_frac " + std::to_string(steal) + ", iowait_frac " +
               std::to_string((to.iowait - from.iowait) / total) +
               " of CPU time over the window; " +
               (steal > kStealLimit ? "UNRESOLVED, steal above "
                                    : "steal within ") +
               std::to_string(kStealLimit));
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    failed(1, "metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

void Report::note(const std::string& line) {
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void Report::failed(std::uint64_t n, const std::string& why) {
  if (failed_ < kShownFailures) note("FAIL: " + why);
  failed_ += n;
}

void Report::finish() const {
  for (const Entry& m : metrics_)
    std::printf("  %-30s %16s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  std::string json = std::string("{\"correct\": ") +
                     (correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted_) +
                     ", \"failed\": " + std::to_string(failed_) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& m = metrics_[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

namespace {

bool parse_args(int argc, char** argv, RunOptions& run) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      run.workload = value;
    } else if (key == "--seed") {
      run.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      run.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      run.trace = value == "1";
    } else if (key == "--cli") {
      run.cli = value;
    } else if (key == "--work") {
      run.work = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !run.workload.empty() && !run.cli.empty() &&
         !run.work.empty() && run.seconds > 0.0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions run;
  if (!parse_args(argc, argv, run)) {
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload W --seed N --seconds S "
                 "--trace 0|1 --cli PATH --work DIR\n");
    return 2;
  }
#ifdef NDEBUG
  const char* build = "optimised (NDEBUG)";
#else
  const char* build = "NOT optimised (assertions on)";
#endif
  Report::note("perfbench " + run.workload + " seed=" + std::to_string(run.seed) +
               " seconds=" + std::to_string(run.seconds) +
               " trace=" + (run.trace ? "1" : "0") + " build=" + build);
  Report report;
  try {
    if (run.workload == "batch_multiuser")
      run_batch_workload(run, report);
    else if (run.workload == "serve_hit" || run.workload == "serve_churn")
      run_served_workload(run, report);
    else
      throw Refusal("unknown workload '" + run.workload + "'");
  } catch (const Refusal& refusal) {
    std::fprintf(stderr, "perfbench: refused: %s\n", refusal.what());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
  report.finish();
  return report.correct() ? 0 : 1;
}
