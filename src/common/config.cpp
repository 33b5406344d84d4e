#include "common/config.hpp"

#include "common/logging.hpp"
#include "common/strings.hpp"

namespace mecoff {

Config Config::from_args(int argc, const char* const* argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (eq == std::string_view::npos) {
      MECOFF_LOG_WARN << "ignoring argument without '=': " << arg;
      continue;
    }
    cfg.set(std::string(arg.substr(0, eq)), std::string(arg.substr(eq + 1)));
  }
  return cfg;
}

void Config::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

bool Config::has(const std::string& key) const {
  return values_.count(key) > 0;
}

std::string Config::get_string(const std::string& key,
                               const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

long long Config::get_int(const std::string& key, long long fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  long long out = 0;
  return parse_int(it->second, out) ? out : fallback;
}

}  // namespace mecoff
