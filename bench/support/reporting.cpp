#include "support/reporting.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/strings.hpp"
#include "obs/metrics.hpp"

namespace mecoff::bench {

namespace {

/// "Figure 3: local energy" → "figure_3_local_energy".
std::string slugify(const std::string& title) {
  std::string slug;
  for (const char c : title) {
    if (std::isalnum(static_cast<unsigned char>(c)))
      slug.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(c))));
    else if (!slug.empty() && slug.back() != '_')
      slug.push_back('_');
  }
  while (!slug.empty() && slug.back() == '_') slug.pop_back();
  return slug;
}

void maybe_write_csv(const std::string& title, const std::string& x_label,
                     const std::vector<std::string>& x_values,
                     const std::vector<Series>& series) {
  const char* dir = std::getenv("MECOFF_BENCH_CSV_DIR");
  if (dir == nullptr || *dir == '\0') return;
  const std::string path =
      std::string(dir) + "/" + slugify(title) + ".csv";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  out << x_label;
  for (const Series& s : series) out << ',' << s.name;
  out << '\n';
  for (std::size_t i = 0; i < x_values.size(); ++i) {
    out << x_values[i];
    for (const Series& s : series)
      out << ',' << (i < s.values.size()
                         ? format_fixed(s.values[i], 6)
                         : std::string());
    out << '\n';
  }
  std::printf("[csv] wrote %s\n", path.c_str());
}

}  // namespace

double normalize_series(std::vector<Series>& series) {
  double max_value = 0.0;
  for (const Series& s : series)
    for (const double v : s.values) max_value = std::max(max_value, v);
  if (max_value <= 0.0) return 1.0;
  for (Series& s : series)
    for (double& v : s.values) v /= max_value;
  return max_value;
}

void print_figure(const std::string& title, const std::string& x_label,
                  const std::vector<std::string>& x_values,
                  const std::vector<Series>& series, int precision) {
  maybe_write_csv(title, x_label, x_values, series);
  std::printf("\n== %s ==\n", title.c_str());
  std::printf("%-14s", x_label.c_str());
  for (const Series& s : series) std::printf(" | %18s", s.name.c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < x_values.size(); ++i) {
    std::printf("%-14s", x_values[i].c_str());
    for (const Series& s : series) {
      const std::string cell =
          i < s.values.size() ? format_fixed(s.values[i], precision) : "-";
      std::printf(" | %18s", cell.c_str());
    }
    std::printf("\n");
  }
}

void print_table(const std::string& title,
                 const std::vector<std::string>& header,
                 const std::vector<std::vector<std::string>>& rows) {
  std::printf("\n== %s ==\n", title.c_str());
  // Column widths from content.
  std::vector<std::size_t> widths(header.size(), 0);
  for (std::size_t c = 0; c < header.size(); ++c)
    widths[c] = header[c].size();
  for (const auto& row : rows)
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  const auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c)
      std::printf("%s%-*s", c == 0 ? "" : " | ",
                  static_cast<int>(widths[c]), row[c].c_str());
    std::printf("\n");
  };
  print_row(header);
  for (const auto& row : rows) print_row(row);
}

void print_shape_check(const std::string& what, bool ok) {
  std::printf("[%s] %s\n", ok ? "SHAPE-OK" : "SHAPE-WARN", what.c_str());
}

void print_metrics_json(const std::string& title) {
  const std::string json = obs::MetricsRegistry::global().to_json();
  std::printf("[metrics] %s\n", json.c_str());
  const char* dir = std::getenv("MECOFF_BENCH_CSV_DIR");
  if (dir == nullptr || *dir == '\0') return;
  const std::string path =
      std::string(dir) + "/" + slugify(title) + ".metrics.json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  out << json << '\n';
  std::printf("[metrics] wrote %s\n", path.c_str());
}

}  // namespace mecoff::bench
