// Content-addressed scheme cache with single-flight solve coalescing.
//
// Maps a request Fingerprint to the placement row a solve produced.
// Because the whole solver is deterministic (seeded RNG everywhere),
// a cached placement is BIT-IDENTICAL to what a cold solve of the same
// request would compute — serving from the cache is a pure time/energy
// win, never an approximation (tests/serve_test.cpp asserts the
// byte-identity).
//
// Single-flight: the first acquire() of an absent key becomes the
// OWNER (Outcome::kMiss) and must eventually publish() or abandon().
// Concurrent acquires of the same key while the owner solves do not
// start duplicate work — they block on the entry's condition and come
// back with the owner's placement (Outcome::kCoalesced). abandon()
// (solve failed or result was degraded and must not be reused)
// promotes exactly one waiting rider to owner; the rest keep waiting
// on the new owner. That is the serving-time generalization of the
// `identical_user_period` replica compression: N identical in-flight
// requests cost one solve.
//
// Bounded rides: acquire() takes an optional wait budget. A rider
// whose owner has not published within the budget comes back with
// Outcome::kTimeout instead of waiting forever — the deadline-budget
// hook the service's hedged-retry path builds on (the rider then runs
// its own duplicate solve on another shard; it does NOT own the entry,
// so it must neither publish nor abandon). A negative budget waits
// unbounded, preserving the original semantics.
//
// Eviction: ready entries form an LRU list; once their count exceeds
// `capacity`, least-recently-used entries are dropped. In-flight
// (solving) entries and entries with still-waking riders are pinned —
// eviction can never invalidate a placement someone is about to read.
//
// Thread-safe; all methods may be called concurrently. Callers must
// NOT hold pool worker context requirements in mind here — acquire()
// blocks on a condition variable, so riders should be external threads
// (see SolveService's threading contract).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/stopwatch.hpp"
#include "common/thread_annotations.hpp"
#include "mec/scheme.hpp"
#include "serve/fingerprint.hpp"

namespace mecoff::serve {

class SchemeCache {
 public:
  struct Options {
    /// Max READY entries retained; in-flight entries are not counted.
    std::size_t capacity = 1024;
  };

  enum class Outcome : std::uint8_t {
    kHit,        ///< ready entry served directly
    kMiss,       ///< caller owns the solve; publish() or abandon()
    kCoalesced,  ///< rode a concurrent owner's solve
    kTimeout,    ///< wait budget ran out while the owner was solving
  };

  struct Lookup {
    Outcome outcome = Outcome::kMiss;
    /// Valid for kHit/kCoalesced; empty for kMiss.
    std::vector<mec::Placement> placement;
    /// For kHit/kCoalesced: the request id of the owner that solved
    /// (or is credited with) this entry — the correlation answer to
    /// "whose solve am I being served?". 0 = owner carried no id.
    std::uint64_t owner_request_id = 0;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t coalesced = 0;
    std::uint64_t evictions = 0;
    std::uint64_t timeouts = 0;  ///< riders that gave up within budget
    std::size_t entries = 0;     ///< ready entries currently resident
    /// Age of the oldest resident ready entry; 0 when the cache is
    /// empty. O(entries) scan — stats() is a diagnostics path.
    double oldest_entry_age_seconds = 0.0;
  };

  SchemeCache() : SchemeCache(Options{}) {}
  explicit SchemeCache(Options options);
  SchemeCache(const SchemeCache&) = delete;
  SchemeCache& operator=(const SchemeCache&) = delete;

  /// Look up `key`; see Outcome. kMiss makes the caller the owner of
  /// the in-flight solve: it MUST later call publish() or abandon()
  /// with the same key, or riders wait forever. `max_wait_seconds`
  /// bounds how long a rider parks behind an in-flight owner: negative
  /// waits unbounded, 0 refuses to wait at all (deterministic
  /// kTimeout if the entry is in flight), positive gives up after that
  /// long with Outcome::kTimeout. A timed-out rider holds NO ownership
  /// — it must neither publish() nor abandon().
  /// `request_id` is the acquiring request's correlation id: recorded
  /// on the entry when this caller becomes the owner (kMiss, including
  /// abandon-promotion), and echoed back to later hits/riders as
  /// Lookup::owner_request_id.
  [[nodiscard]] Lookup acquire(const Fingerprint& key,
                               double max_wait_seconds = -1.0,
                               std::uint64_t request_id = 0)
      EXCLUDES(mutex_);

  /// Owner completes: store the placement, wake riders, enter the LRU
  /// (possibly evicting older ready entries).
  void publish(const Fingerprint& key, std::vector<mec::Placement> placement)
      EXCLUDES(mutex_);

  /// Owner gives up (error or degraded result that must not be
  /// reused). One waiting rider is promoted to owner; with no riders
  /// the entry vanishes and the next acquire() starts cold.
  void abandon(const Fingerprint& key) EXCLUDES(mutex_);

  [[nodiscard]] Stats stats() const EXCLUDES(mutex_);

 private:
  enum class State : std::uint8_t { kSolving, kReady, kAbandoned };

  struct Entry {
    State state = State::kSolving;
    std::vector<mec::Placement> placement;
    std::size_t waiters = 0;
    /// Correlation id of the request that owns (or solved) this entry.
    std::uint64_t owner_request_id = 0;
    /// Position in lru_ (valid only when state == kReady).
    std::size_t lru_tick = 0;
    /// Reset by publish(); drives Stats::oldest_entry_age_seconds.
    Stopwatch ready_since;
  };

  void evict_locked() REQUIRES(mutex_);

  const Options options_;
  mutable Mutex mutex_;
  /// Riders park here; publish/abandon broadcast. One cv for the whole
  /// cache: wakeups re-check their own entry's state (predicate loop).
  CondVar cv_;
  std::unordered_map<Fingerprint, Entry, FingerprintHash> map_
      GUARDED_BY(mutex_);
  /// Monotone use counter; the ready entry with the smallest tick is
  /// the LRU victim. O(n) victim scan — capacities are small (10^3)
  /// and eviction is off the hot hit path.
  std::size_t tick_ GUARDED_BY(mutex_) = 0;
  std::size_t ready_count_ GUARDED_BY(mutex_) = 0;
  std::uint64_t hits_ GUARDED_BY(mutex_) = 0;
  std::uint64_t misses_ GUARDED_BY(mutex_) = 0;
  std::uint64_t coalesced_ GUARDED_BY(mutex_) = 0;
  std::uint64_t evictions_ GUARDED_BY(mutex_) = 0;
  std::uint64_t timeouts_ GUARDED_BY(mutex_) = 0;
};

}  // namespace mecoff::serve
