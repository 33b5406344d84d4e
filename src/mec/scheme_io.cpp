#include "mec/scheme_io.hpp"

#include <ostream>
#include <sstream>

#include "common/strings.hpp"

namespace mecoff::mec {

void write_scheme(const OffloadingScheme& scheme, std::ostream& out) {
  out << "scheme users " << scheme.placement.size() << '\n';
  for (std::size_t u = 0; u < scheme.placement.size(); ++u) {
    out << "user " << u << ' ';
    for (const Placement p : scheme.placement[u])
      out << (p == Placement::kLocal ? 'L' : 'R');
    out << '\n';
  }
}

Result<OffloadingScheme> parse_scheme_text(const std::string& text) {
  std::istringstream in(text);
  OffloadingScheme scheme;
  bool saw_header = false;
  std::string line;
  std::size_t line_no = 0;
  std::size_t users_seen = 0;

  const auto fail = [&](const std::string& why) {
    return Error("line " + std::to_string(line_no) + ": " + why);
  };

  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view trimmed = trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    const std::vector<std::string> tokens = split_ws(trimmed);

    if (tokens[0] == "scheme") {
      long long n = 0;
      if (tokens.size() != 3 || tokens[1] != "users" ||
          !parse_int(tokens[2], n) || n < 0)
        return fail("expected 'scheme users <count>'");
      if (saw_header) return fail("duplicate header");
      saw_header = true;
      scheme.placement.resize(static_cast<std::size_t>(n));
    } else if (tokens[0] == "user") {
      if (!saw_header) return fail("'user' before header");
      long long index = 0;
      if (tokens.size() != 3 || !parse_int(tokens[1], index) || index < 0 ||
          static_cast<std::size_t>(index) >= scheme.placement.size())
        return fail("expected 'user <index in range> <placements>'");
      std::vector<Placement>& row =
          scheme.placement[static_cast<std::size_t>(index)];
      if (!row.empty()) return fail("duplicate user " + tokens[1]);
      row.reserve(tokens[2].size());
      for (const char c : tokens[2]) {
        if (c == 'L')
          row.push_back(Placement::kLocal);
        else if (c == 'R')
          row.push_back(Placement::kRemote);
        else
          return fail(std::string("bad placement character '") + c + "'");
      }
      if (row.empty()) return fail("empty placement string");
      ++users_seen;
    } else {
      return fail("unknown directive '" + tokens[0] + "'");
    }
  }
  if (!saw_header) return Error("missing 'scheme users' header");
  if (users_seen != scheme.placement.size())
    return Error("expected " + std::to_string(scheme.placement.size()) +
                 " user lines, got " + std::to_string(users_seen));
  return scheme;
}

}  // namespace mecoff::mec
