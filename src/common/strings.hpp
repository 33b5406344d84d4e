// Small string utilities shared by the DSL parser, graph I/O and the
// bench table printers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace mecoff {

/// Split `text` on any run of whitespace, dropping empty fields.
std::vector<std::string> split_ws(std::string_view text);

/// Strip leading/trailing whitespace.
std::string_view trim(std::string_view text);

/// Parse helpers returning false on malformed input (no exceptions).
bool parse_double(std::string_view text, double& out);
bool parse_int(std::string_view text, long long& out);

/// Format a double with `precision` digits after the point. Rendered
/// via std::to_chars (printf "%.*f" semantics pinned to the "C"
/// locale), so the bytes never vary with LC_NUMERIC.
std::string format_fixed(double value, int precision);

/// printf "%.*g" semantics pinned to the "C" locale, via std::to_chars.
/// precision 17 round-trips any double exactly — the sim layer's replay
/// keys (fault scripts, chaos traces) rely on that.
std::string format_general(double value, int precision);

}  // namespace mecoff
