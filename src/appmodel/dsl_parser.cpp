#include "appmodel/dsl_parser.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/strings.hpp"

namespace mecoff::appmodel {

namespace {

/// The C-locale isspace set (' ', \t, \n, \v, \f, \r): tokens split here.
constexpr bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Split "key=value" at the first '='; returns false on no '='.
bool split_kv(std::string_view token, std::string_view& key,
              std::string_view& value) {
  const std::size_t eq = token.find('=');
  if (eq == std::string_view::npos) return false;
  key = token.substr(0, eq);
  value = token.substr(eq + 1);
  return true;
}

/// Replace `tokens` with the whitespace-separated views of `line`.
void tokenize(std::string_view line, std::vector<std::string_view>& tokens) {
  tokens.clear();
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && is_space(line[i])) ++i;
    const std::size_t start = i;
    while (i < line.size() && !is_space(line[i])) ++i;
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
}

}  // namespace

Result<Application> parse_app_dsl(std::string_view text) {
  Application app;
  bool named = false;
  std::string current_component;
  std::vector<std::string_view> tokens;
  std::size_t line_no = 0;

  const auto fail = [&](const std::string& why) {
    return Error("line " + std::to_string(line_no) + ": " + why);
  };
  const auto quoted = [](const char* what, std::string_view token) {
    return std::string(what) + " '" + std::string(token) + "'";
  };

  // Lines end at '\n'; a last line without one still counts.
  for (std::size_t begin = 0; begin < text.size();) {
    const std::size_t end = std::min(text.find('\n', begin), text.size());
    std::string_view line = text.substr(begin, end - begin);
    begin = end + 1;
    ++line_no;
    // '#' starts a comment anywhere on the line, mid-token included.
    tokenize(line.substr(0, line.find('#')), tokens);
    if (tokens.empty()) continue;

    if (tokens[0] == "app") {
      if (tokens.size() != 2) return fail("expected 'app <name>'");
      if (named) return fail("duplicate 'app' directive");
      // Naming the app starts a fresh Application; a late `app` line
      // would drop every function declared above it.
      if (app.num_functions() > 0)
        return fail("'app' must come before the first function");
      app = Application(std::string(tokens[1]));
      named = true;
    } else if (tokens[0] == "component") {
      if (tokens.size() != 2)
        return fail("expected 'component <name>' ('-' resets)");
      if (tokens[1] == "-")
        current_component.clear();
      else
        current_component.assign(tokens[1]);
    } else if (tokens[0] == "function") {
      if (tokens.size() < 2) return fail("expected 'function <name> ...'");
      FunctionInfo info;
      info.name.assign(tokens[1]);
      info.component = current_component;
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        if (tokens[i] == "unoffloadable") {
          info.unoffloadable = true;
          continue;
        }
        std::string_view key;
        std::string_view value;
        if (!split_kv(tokens[i], key, value))
          return fail(quoted("unknown function attribute", tokens[i]));
        if (key == "compute") {
          // std::from_chars accepts "inf"/"nan"; neither compares < 0,
          // so finiteness must be checked explicitly or a NaN compute
          // cost flows into every downstream energy sum.
          if (!parse_double(value, info.computation) ||
              !std::isfinite(info.computation) || info.computation < 0)
            return fail(quoted("bad compute value", value));
        } else {
          return fail(quoted("unknown function attribute key", key));
        }
      }
      if (app.find_function(info.name) != Application::npos)
        return fail(quoted("duplicate function", info.name));
      app.add_function(std::move(info));
    } else if (tokens[0] == "call") {
      if (tokens.size() != 4) return fail("expected 'call <a> <b> data=<x>'");
      const std::size_t a = app.find_function(tokens[1]);
      const std::size_t b = app.find_function(tokens[2]);
      if (a == Application::npos)
        return fail(quoted("unknown function", tokens[1]));
      if (b == Application::npos)
        return fail(quoted("unknown function", tokens[2]));
      if (a == b) return fail("self-call is not a data exchange");
      std::string_view key;
      std::string_view value;
      double amount = 0;
      if (!split_kv(tokens[3], key, value) || key != "data" ||
          !parse_double(value, amount) || !std::isfinite(amount) ||
          amount < 0)
        return fail("expected data=<non-negative amount>");
      app.add_exchange(a, b, amount);
    } else {
      return fail(quoted("unknown directive", tokens[0]));
    }
  }
  if (app.num_functions() == 0) return Error("no functions declared");
  return app;
}

std::string to_app_dsl(const Application& app) {
  std::ostringstream out;
  out << "app " << app.name() << '\n';
  std::string current_component;  // parser starts in the anonymous one
  for (const FunctionInfo& f : app.functions()) {
    if (f.component != current_component) {
      current_component = f.component;
      out << "component "
          << (current_component.empty() ? "-" : current_component) << '\n';
    }
    out << "function " << f.name << " compute=" << f.computation;
    if (f.unoffloadable) out << " unoffloadable";
    out << '\n';
  }
  for (const DataExchange& x : app.exchanges())
    out << "call " << app.function(x.from).name << ' '
        << app.function(x.to).name << " data=" << x.amount << '\n';
  return out.str();
}

}  // namespace mecoff::appmodel
