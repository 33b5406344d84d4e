// In-memory span recorder for the traced replay. Each span has a name,
// start, end, parent span and request id. Spans stay in memory and are
// written out once, when the run ends.
//
// The replay times the program's public calls from outside. Where the
// program calls A and A calls B internally, the replay times A as one
// call and then B as a separate call on the same input, recording B's
// span with A as its parent. A's self time is therefore its duration
// minus the durations of its child spans, not minus an overlap.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Interval {
  Clock::time_point start;
  Clock::time_point end;
};

class Tracer {
 public:
  explicit Tracer(bool recording) : recording_(recording) {}

  void set_recording(bool on) { recording_ = on; }

  /// Open a span; returns its id, or -1 (a no-op handle) when not
  /// recording. `name` must be a string literal.
  int open(const char* name, int parent, std::uint64_t request);
  void close(int span);
  /// Record a span timed elsewhere (on another thread); returns its id,
  /// or -1 when not recording.
  int record(const char* name, int parent, std::uint64_t request,
             const Interval& when);

  struct Span {
    const char* name;
    int parent;
    std::uint64_t request;
    Clock::time_point start;
    Clock::time_point end;
  };
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Per request accepted by `keep`: the summed duration (or self time)
  /// in µs of its spans named `name`. Requests without such a span are
  /// left out.
  [[nodiscard]] std::vector<double> per_request(
      const char* name, bool self,
      const std::function<bool(std::uint64_t)>& keep) const;

 private:
  [[nodiscard]] double self_us(std::size_t span) const;

  bool recording_;
  std::vector<Span> spans_;
  /// Summed child durations per span, filled lazily by self_us().
  mutable std::vector<double> child_us_;
};

/// Write the run's spans to <work>/spans-<workload>-<seed>.tsv: one
/// tab-separated line per span, times in µs from the first span's start.
void write_spans(const RunOptions& run, const Tracer& tracer);

/// RAII span.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name, int parent,
            std::uint64_t request)
      : tracer_(tracer), id_(tracer.open(name, parent, request)) {}
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() { tracer_.close(id_); }
  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
