// Minimal logger for warnings and errors. Library code logs sparingly
// (degenerate inputs, solver fallbacks); every line reaches stderr.
#pragma once

#include <sstream>
#include <string>

namespace mecoff {

enum class LogLevel { kWarn, kError };

/// Emit one log line to stderr (thread-safe).
void log_message(LogLevel level, const std::string& message);

namespace detail {
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;
  ~LogLine() { log_message(level_, stream_.str()); }
  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};
}  // namespace detail

}  // namespace mecoff

#define MECOFF_LOG_WARN ::mecoff::detail::LogLine(::mecoff::LogLevel::kWarn)
#define MECOFF_LOG_ERROR ::mecoff::detail::LogLine(::mecoff::LogLevel::kError)
