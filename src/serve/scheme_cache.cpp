#include "serve/scheme_cache.hpp"

#include <chrono>
#include <limits>
#include <utility>

#include "common/contracts.hpp"
#include "obs/obs.hpp"

namespace mecoff::serve {

SchemeCache::SchemeCache(Options options) : options_(options) {}

SchemeCache::Lookup SchemeCache::acquire(const Fingerprint& key,
                                         double max_wait_seconds,
                                         std::uint64_t request_id) {
  const Stopwatch waited;
  const MutexLock lock(mutex_);
  for (;;) {
    auto it = map_.find(key);
    if (it == map_.end()) {
      Entry owned;  // kSolving: this caller owns it
      owned.owner_request_id = request_id;
      map_.emplace(key, std::move(owned));
      ++misses_;
      return Lookup{Outcome::kMiss, {}};
    }
    Entry& entry = it->second;
    if (entry.state == State::kReady) {
      entry.lru_tick = ++tick_;
      ++hits_;
      return Lookup{Outcome::kHit, entry.placement, entry.owner_request_id};
    }
    // In-flight: ride the owner's solve. The entry cannot be erased
    // while waiters > 0 (publish keeps it, abandon only flips state,
    // eviction skips entries with waiters), so the reference stays
    // valid across the wait. A wait budget turns the park into a
    // predicate loop over the REMAINING budget: cv_.wait_for does not
    // report why it woke, so the state re-check plus the stopwatch are
    // the whole protocol. Timing out is only decided while the entry
    // is still kSolving — a publish that lands in the same instant
    // wins and the rider coalesces normally.
    ++entry.waiters;
    bool timed_out = false;
    while (entry.state == State::kSolving) {
      if (max_wait_seconds < 0.0) {
        cv_.wait(mutex_);
        continue;
      }
      const double remaining = max_wait_seconds - waited.elapsed_seconds();
      if (remaining <= 0.0) {
        timed_out = true;
        break;
      }
      cv_.wait_for(mutex_, std::chrono::duration<double>(remaining));
    }
    --entry.waiters;
    if (timed_out) {
      ++timeouts_;
      MECOFF_COUNTER_ADD("serve.cache.wait_timeouts", 1);
      return Lookup{Outcome::kTimeout, {}};
    }
    if (entry.state == State::kAbandoned) {
      // Owner bailed out; THIS rider takes over the solve. Remaining
      // riders observe kSolving again and keep waiting on the new
      // owner.
      entry.state = State::kSolving;
      entry.owner_request_id = request_id;
      ++misses_;
      return Lookup{Outcome::kMiss, {}};
    }
    ++coalesced_;
    return Lookup{Outcome::kCoalesced, entry.placement,
                  entry.owner_request_id};
  }
}

void SchemeCache::publish(const Fingerprint& key,
                          std::vector<mec::Placement> placement) {
  const MutexLock lock(mutex_);
  auto it = map_.find(key);
  MECOFF_EXPECTS(it != map_.end() && it->second.state == State::kSolving);
  Entry& entry = it->second;
  entry.placement = std::move(placement);
  entry.state = State::kReady;
  entry.lru_tick = ++tick_;
  entry.ready_since.reset();
  ++ready_count_;
  evict_locked();
  cv_.notify_all();
}

void SchemeCache::abandon(const Fingerprint& key) {
  const MutexLock lock(mutex_);
  auto it = map_.find(key);
  MECOFF_EXPECTS(it != map_.end() && it->second.state == State::kSolving);
  if (it->second.waiters == 0) {
    map_.erase(it);  // nobody to hand the solve to; next acquire is cold
    return;
  }
  it->second.state = State::kAbandoned;
  cv_.notify_all();
}

SchemeCache::Stats SchemeCache::stats() const {
  const MutexLock lock(mutex_);
  Stats out;
  out.hits = hits_;
  out.misses = misses_;
  out.coalesced = coalesced_;
  out.evictions = evictions_;
  out.timeouts = timeouts_;
  out.entries = ready_count_;
  for (const auto& [key, entry] : map_) {
    if (entry.state != State::kReady) continue;
    const double age = entry.ready_since.elapsed_seconds();
    if (age > out.oldest_entry_age_seconds)
      out.oldest_entry_age_seconds = age;
  }
  return out;
}

void SchemeCache::evict_locked() {
  while (ready_count_ > options_.capacity) {
    auto victim = map_.end();
    std::size_t oldest = std::numeric_limits<std::size_t>::max();
    for (auto it = map_.begin(); it != map_.end(); ++it) {
      const Entry& entry = it->second;
      if (entry.state != State::kReady || entry.waiters != 0) continue;
      if (entry.lru_tick < oldest) {
        oldest = entry.lru_tick;
        victim = it;
      }
    }
    if (victim == map_.end()) return;  // everything pinned; try later
    map_.erase(victim);
    --ready_count_;
    ++evictions_;
    MECOFF_COUNTER_ADD("serve.cache.evictions", 1);
  }
}

}  // namespace mecoff::serve
