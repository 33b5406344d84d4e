// Tiny key=value configuration store used by examples and benches to
// accept command-line overrides like `threshold=3.5 users=2000`.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace mecoff {

class Config {
 public:
  Config() = default;

  /// Parse `key=value` tokens; tokens without '=' are ignored with a warning.
  static Config from_args(int argc, const char* const* argv);

  void set(const std::string& key, const std::string& value);

  [[nodiscard]] bool has(const std::string& key) const;

  /// Typed getters returning `fallback` when the key is missing or malformed.
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  [[nodiscard]] long long get_int(const std::string& key,
                                  long long fallback) const;

  [[nodiscard]] const std::map<std::string, std::string>& entries() const {
    return values_;
  }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace mecoff
