// Offloading-scheme serialization: a compact text format so schemes can
// be computed once (CLI `solve out=...`), stored, audited, and replayed
// into the simulators (`simulate scheme=...`).
//
// Format:
//   scheme users <n>
//   user <index> <placements>     # one char per function: L or R
//   # comments and blank lines are ignored
#pragma once

#include <iosfwd>
#include <string>

#include "common/result.hpp"
#include "mec/scheme.hpp"

namespace mecoff::mec {

void write_scheme(const OffloadingScheme& scheme, std::ostream& out);

/// Parse the format above; errors carry line numbers. The scheme's
/// shape is validated against nothing here — pair with
/// OffloadingScheme::valid_for before use.
[[nodiscard]] Result<OffloadingScheme> parse_scheme_text(
    const std::string& text);

}  // namespace mecoff::mec
