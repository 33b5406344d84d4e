#include "serve/fault_injector.hpp"

#include <string>

#include "common/contracts.hpp"
#include "obs/obs.hpp"

namespace mecoff::serve {

FaultInjector::FaultInjector(Options options) : options_(options) {
  MECOFF_EXPECTS(options_.shards >= 1);
  killed_.assign(options_.shards, 0);
  latency_.assign(options_.shards, 0.0);
}

void FaultInjector::arm(const sim::FaultScript& script) {
  const MutexLock lock(mutex_);
  schedule_ = script.ordered();
  next_event_ = 0;
  sequence_ = 0;
  killed_.assign(killed_.size(), 0);
  latency_.assign(latency_.size(), 0.0);
  killed_count_ = 0;
  publish_steals_armed_ = 0;
  publish_steals_taken_ = 0;
  events_applied_ = 0;
  trace_.clear();
}

std::uint64_t FaultInjector::begin_request() {
  const MutexLock lock(mutex_);
  const std::uint64_t seq = ++sequence_;
  while (next_event_ < schedule_.size() &&
         schedule_[next_event_].time <= static_cast<double>(seq)) {
    apply_locked(schedule_[next_event_]);
    ++next_event_;
  }
  return seq;
}

void FaultInjector::apply_locked(const sim::FaultEvent& event) {
  const std::size_t shard = event.target % killed_.size();
  switch (event.kind) {
    case sim::FaultKind::kServerCrash:
      if (killed_[shard] == 0) ++killed_count_;
      killed_[shard] = 1;
      break;
    case sim::FaultKind::kServerRecover:
      if (killed_[shard] != 0) --killed_count_;
      killed_[shard] = 0;
      break;
    case sim::FaultKind::kLinkDegrade:
      latency_[shard] = event.severity * options_.latency_scale_seconds;
      break;
    case sim::FaultKind::kLinkRestore:
      latency_[shard] = 0.0;
      break;
    case sim::FaultKind::kUserDisconnect:
      ++publish_steals_armed_;
      break;
  }
  ++events_applied_;
  MECOFF_COUNTER_ADD("serve.fault.events_applied", 1);
  trace_.push_back("req " + std::to_string(sequence_) + ": " +
                   event.describe());
}

bool FaultInjector::shard_killed(std::size_t shard) const {
  const MutexLock lock(mutex_);
  return killed_[shard % killed_.size()] != 0;
}

double FaultInjector::injected_latency_seconds(std::size_t shard) const {
  const MutexLock lock(mutex_);
  return latency_[shard % latency_.size()];
}

bool FaultInjector::steal_publish() {
  const MutexLock lock(mutex_);
  if (publish_steals_taken_ >= publish_steals_armed_) return false;
  ++publish_steals_taken_;
  MECOFF_COUNTER_ADD("serve.cache.publish_failures", 1);
  return true;
}

FaultInjector::Stats FaultInjector::stats() const {
  const MutexLock lock(mutex_);
  Stats out;
  out.requests_seen = sequence_;
  out.events_applied = events_applied_;
  out.events_pending = schedule_.size() - next_event_;
  out.publish_failures = publish_steals_taken_;
  out.shards_killed = killed_count_;
  return out;
}

std::vector<std::string> FaultInjector::trace() const {
  const MutexLock lock(mutex_);
  return trace_;
}

}  // namespace mecoff::serve
