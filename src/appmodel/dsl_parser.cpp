#include "appmodel/dsl_parser.hpp"

#include <array>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/strings.hpp"

namespace mecoff::appmodel {

namespace {

/// How the tokenizer treats a byte. Blanks are the C-locale isspace set
/// without '\n' (' ', \t, \v, \f, \r): tokens split there; '\n' ends
/// the line and '#' cuts it; every other byte belongs to a token.
enum ByteClass : std::uint8_t { kToken, kBlank, kNewline, kComment };

constexpr std::array<ByteClass, 256> kByteClass = [] {
  std::array<ByteClass, 256> table{};
  for (const unsigned char c : {' ', '\t', '\v', '\f', '\r'})
    table[c] = kBlank;
  table[static_cast<unsigned char>('\n')] = kNewline;
  table[static_cast<unsigned char>('#')] = kComment;
  return table;
}();

ByteClass byte_class(char c) {
  return kByteClass[static_cast<unsigned char>(c)];
}

/// Split "key=value" at the first '='; returns false on no '='.
bool split_kv(std::string_view token, std::string_view& key,
              std::string_view& value) {
  const std::size_t eq = token.find('=');
  if (eq == std::string_view::npos) return false;
  key = token.substr(0, eq);
  value = token.substr(eq + 1);
  return true;
}

/// Replace `tokens` with the tokens of the line starting at `pos`, and
/// move `pos` past the line's '\n' (or to the end of `text`).
void next_line(std::string_view text, std::size_t& pos,
               std::vector<std::string_view>& tokens) {
  tokens.clear();
  const std::size_t size = text.size();
  std::size_t i = pos;
  while (i < size) {
    const ByteClass c = byte_class(text[i]);
    if (c == kBlank) {
      ++i;
    } else if (c == kToken) {
      const std::size_t start = i;
      while (++i < size && byte_class(text[i]) == kToken) {
      }
      tokens.push_back(text.substr(start, i - start));
    } else {
      // '#' cuts the line: its tail up to the '\n' is skipped.
      if (c == kComment) {
        i = text.find('\n', i);
        if (i == std::string_view::npos) break;
      }
      pos = i + 1;
      return;
    }
  }
  pos = size;
}

}  // namespace

Result<Application> parse_app_dsl(std::string_view text) {
  // Every exchange takes a line of at least kShortestCall bytes, so the
  // body size bounds the exchange count without a scan (counting the
  // '\n' bytes first cost more than the reallocations it saved).
  constexpr std::size_t kShortestCall = 16;  // "call a b data=0\n"
  const std::size_t exchange_bound = text.size() / kShortestCall + 1;
  Application app;
  app.reserve_exchanges(exchange_bound);
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
  for (std::size_t pos = 0; pos < text.size();) {
    next_line(text, pos, tokens);
    ++line_no;
    if (tokens.empty()) continue;

    if (tokens[0] == "app") {
      if (tokens.size() != 2) return fail("expected 'app <name>'");
      if (named) return fail("duplicate 'app' directive");
      // Naming the app starts a fresh Application; a late `app` line
      // would drop every function declared above it.
      if (app.num_functions() > 0)
        return fail("'app' must come before the first function");
      app = Application(std::string(tokens[1]));
      app.reserve_exchanges(exchange_bound);
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
      if (app.try_add_function(std::move(info)) == Application::npos)
        return fail(quoted("duplicate function", tokens[1]));
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
