#include "obs/trace.hpp"

#include <algorithm>
#include <ostream>

#include "common/strings.hpp"

namespace mecoff::obs {

TraceCollector::TraceCollector()
    : epoch_(std::chrono::steady_clock::now()) {}

TraceCollector& TraceCollector::global() {
  static TraceCollector collector;
  return collector;
}

void TraceCollector::set_capacity(std::size_t max_events) {
  capacity_.store(max_events, std::memory_order_relaxed);
}

std::size_t TraceCollector::event_count() const {
  return total_events_.load(std::memory_order_relaxed);
}

std::size_t TraceCollector::dropped_count() const {
  return dropped_.load(std::memory_order_relaxed);
}

TraceCollector::ThreadLog& TraceCollector::local_log() {
  // One cache slot per thread; collector identity never changes (the
  // global singleton), so a plain pointer cache is enough.
  thread_local ThreadLog* cached = nullptr;
  if (cached != nullptr) return *cached;
  const MutexLock lock(registry_mutex_);
  logs_.push_back(std::make_unique<ThreadLog>());
  logs_.back()->tid = static_cast<std::uint32_t>(logs_.size() - 1);
  cached = logs_.back().get();
  return *cached;
}

void TraceCollector::record(const TraceEvent& event) {
  if (total_events_.fetch_add(1, std::memory_order_relaxed) >=
      capacity_.load(std::memory_order_relaxed)) {
    total_events_.fetch_sub(1, std::memory_order_relaxed);
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ThreadLog& log = local_log();
  const MutexLock lock(log.mutex);
  log.events.push_back(event);
}

void TraceCollector::clear() {
  const MutexLock lock(registry_mutex_);
  for (const std::unique_ptr<ThreadLog>& log : logs_) {
    const MutexLock log_lock(log->mutex);
    log->events.clear();
  }
  total_events_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

void TraceCollector::write_chrome_trace(std::ostream& out) const {
  // Gather under the registry lock, then serialize sorted by start
  // time so the JSON is stable and diffs cleanly.
  std::vector<TraceEvent> events;
  {
    const MutexLock lock(registry_mutex_);
    for (const std::unique_ptr<ThreadLog>& log : logs_) {
      const MutexLock log_lock(log->mutex);
      events.insert(events.end(), log->events.begin(), log->events.end());
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start_us < b.start_us;
                   });

  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& event : events) {
    if (!first) out << ',';
    first = false;
    // Timestamps via format_fixed (to_chars) — "%.3f" would follow
    // LC_NUMERIC and emit JSON-invalid comma decimals.
    out << "{\"name\":\"" << event.name
        << "\",\"cat\":\"mecoff\",\"ph\":\"X\",\"ts\":"
        << format_fixed(event.start_us, 3)
        << ",\"dur\":" << format_fixed(event.duration_us, 3)
        << ",\"pid\":1,\"tid\":" << event.tid
        << ",\"args\":{\"depth\":" << event.depth;
    if (event.arg != kNoArg) out << ",\"arg\":" << event.arg;
    out << "}}";
  }
  out << "]}";
}

TraceSpan::TraceSpan(const char* name, std::uint64_t arg)
    : name_(name), arg_(arg) {
  TraceCollector& collector = TraceCollector::global();
  if (!collector.enabled()) return;  // inert: log_ stays null
  log_ = &collector.local_log();
  ++log_->depth;
  start_us_ = collector.now_us();
}

TraceSpan::~TraceSpan() {
  if (log_ == nullptr) return;
  TraceCollector& collector = TraceCollector::global();
  TraceEvent event;
  event.name = name_;
  event.start_us = start_us_;
  event.duration_us = collector.now_us() - start_us_;
  event.tid = log_->tid;
  event.depth = --log_->depth;
  event.arg = arg_;
  collector.record(event);
}

}  // namespace mecoff::obs
