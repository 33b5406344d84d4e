#include "common/logging.hpp"

#include <iostream>

#include "common/thread_annotations.hpp"

namespace mecoff {

namespace {
Mutex g_mutex;  // serializes whole lines onto std::cerr

const char* level_name(LogLevel level) {
  return level == LogLevel::kError ? "ERROR" : "WARN ";
}
}  // namespace

void log_message(LogLevel level, const std::string& message) {
  const MutexLock lock(g_mutex);
  std::cerr << "[mecoff " << level_name(level) << "] " << message << '\n';
}

}  // namespace mecoff
