// Table/series printers producing the paper's reporting format:
// per-figure series normalized to the global maximum across algorithms
// (the paper's y-axes are "normalized", with the worst algorithm at the
// largest scale pinned to 1.00).
#pragma once

#include <string>
#include <vector>

namespace mecoff::bench {

/// A named series over a shared x-axis.
struct Series {
  std::string name;
  std::vector<double> values;
};

/// Divide every value in every series by the global maximum (no-op when
/// the maximum is 0). Returns the scale used.
double normalize_series(std::vector<Series>& series);

/// Print a figure-style table:
///   <title>
///   x-label      | series1 | series2 | ...
///   <x[0]>       |  0.012  |  0.034  | ...
/// When the environment variable MECOFF_BENCH_CSV_DIR names a writable
/// directory, the same data is also written there as
/// <slugified-title>.csv for plotting.
void print_figure(const std::string& title, const std::string& x_label,
                  const std::vector<std::string>& x_values,
                  const std::vector<Series>& series, int precision = 3);

/// Print a plain table with left-aligned first column.
void print_table(const std::string& title,
                 const std::vector<std::string>& header,
                 const std::vector<std::vector<std::string>>& rows);

/// Shape-check helper used in every figure bench's epilogue: prints
/// PASS/WARN lines such as "ours <= baselines at every point".
void print_shape_check(const std::string& what, bool ok);

/// Dump the global obs::MetricsRegistry as a single JSON line
/// ("[metrics] {...}") so bench output stays machine-greppable. When
/// MECOFF_BENCH_CSV_DIR is set, also writes <slug>.metrics.json there.
void print_metrics_json(const std::string& title);

}  // namespace mecoff::bench
