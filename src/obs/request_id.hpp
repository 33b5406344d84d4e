// Per-request correlation id, carried on the current thread.
//
// The serving path assigns every SolveRequest a numeric id (caller-
// supplied, or the fault-injector sequence number, or a service-local
// counter — see serve::SolveService). The id must reach instruments
// that fire deep inside the solve — the flight recorder's SolveRecord
// and the Quantiles exemplar — without threading a parameter through
// PipelineOffloader, which knows nothing about serving. A thread-local
// carries it instead: the service opens a RequestIdScope around the
// solve on whichever thread executes it (pool worker or caller), and
// anything downstream reads current_request_id().
//
// This is plumbing, not instrumentation: the response header and `id=`
// line carry it whether or not anything consumes it. Id 0 means "no
// request in scope" and is never assigned.
#pragma once

#include <cstdint>

namespace mecoff::obs {

/// Id of the request being served on this thread; 0 when none.
[[nodiscard]] std::uint64_t current_request_id();

/// RAII scope that sets the thread's current request id, restoring the
/// previous value on destruction (scopes nest; hedged retries reuse the
/// same id on another worker via their own scope).
class RequestIdScope {
 public:
  explicit RequestIdScope(std::uint64_t id);
  ~RequestIdScope();

  RequestIdScope(const RequestIdScope&) = delete;
  RequestIdScope& operator=(const RequestIdScope&) = delete;

 private:
  std::uint64_t prev_;
};

}  // namespace mecoff::obs
