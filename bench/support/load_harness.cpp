#include "support/load_harness.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/contracts.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_annotations.hpp"

namespace mecoff::bench {

double LoadOutcome::percentile(double q) const {
  if (latencies.empty()) return 0.0;
  std::vector<double> sorted = latencies;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1));
  std::nth_element(sorted.begin(), sorted.begin() + rank, sorted.end());
  return sorted[rank];
}

namespace {

/// Per-client tallies, merged after join (no shared-state contention on
/// the measured path).
struct ClientTally {
  LoadOutcome counts;  ///< latencies unsorted here; merged later
};

void classify(const serve::SolveResponse& response, ClientTally& tally) {
  switch (response.source) {
    case serve::SolveSource::kSolved: ++tally.counts.solved; break;
    case serve::SolveSource::kCacheHit: ++tally.counts.hits; break;
    case serve::SolveSource::kCoalesced: ++tally.counts.coalesced; break;
    case serve::SolveSource::kShed: ++tally.counts.shed; break;
    case serve::SolveSource::kHedged: ++tally.counts.hedged; break;
    case serve::SolveSource::kDeadlineDegraded:
      ++tally.counts.deadline_degraded;
      break;
  }
  if (response.degraded) ++tally.counts.degraded;
}

/// Generation-counted rendezvous: every client calls arrive_and_wait at
/// a segment boundary; the LAST arriver runs the aggregation callback
/// while everyone else is parked, then releases the generation. The
/// barrier mutex is what makes the aggregate read safe: each client's
/// tally writes happen-before its mutex acquire, so the last arriver
/// (holding the same mutex) observes all of them.
class SegmentBarrier {
 public:
  explicit SegmentBarrier(std::size_t parties) : parties_(parties) {}

  template <typename Fn>
  void arrive_and_wait(Fn&& on_last) EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    const std::uint64_t generation = generation_;
    if (++arrived_ == parties_) {
      arrived_ = 0;
      ++generation_;
      on_last();
      cv_.notify_all();
      return;
    }
    while (generation_ == generation) cv_.wait(mutex_);
  }

 private:
  const std::size_t parties_;
  Mutex mutex_;
  CondVar cv_;
  std::size_t arrived_ GUARDED_BY(mutex_) = 0;
  std::uint64_t generation_ GUARDED_BY(mutex_) = 0;
};

/// Cumulative tallies across all clients, folded into a SegmentSample.
/// Called only at quiescent points (inside the barrier, or after join),
/// which is what makes the numbers deterministic for a deterministic
/// request pattern.
SegmentSample fold_sample(const std::vector<ClientTally>& tallies,
                          std::size_t segment, double wall_seconds) {
  SegmentSample sample;
  sample.segment = segment;
  sample.wall_seconds = wall_seconds;
  for (const ClientTally& tally : tallies) {
    const LoadOutcome& c = tally.counts;
    sample.requests += c.requests;
    sample.solved += c.solved;
    sample.hits += c.hits;
    sample.coalesced += c.coalesced;
    sample.shed += c.shed;
    sample.hedged += c.hedged;
    sample.deadline_degraded += c.deadline_degraded;
    sample.degraded += c.degraded;
  }
  return sample;
}

}  // namespace

LoadOutcome run_load(serve::SolveService& service,
                     const std::vector<serve::SolveRequest>& requests,
                     const std::vector<std::vector<mec::Placement>>& reference,
                     const LoadOptions& options) {
  MECOFF_EXPECTS(!requests.empty());
  MECOFF_EXPECTS(options.clients > 0);
  MECOFF_EXPECTS(options.segments > 0);
  const std::size_t apps = requests.size();
  const std::size_t clients = options.clients;
  const std::size_t total = options.total_requests;
  const std::size_t segments = options.segments;

  std::vector<ClientTally> tallies(clients);
  std::vector<SegmentSample> samples;
  samples.reserve(segments);
  SegmentBarrier barrier(clients);
  const Stopwatch wall;
  // Shared by the barrier's last arrivers only — each boundary has
  // exactly one, and successive boundaries are ordered by the barrier
  // mutex, so no extra synchronisation is needed here.
  const auto take_sample = [&] {
    SegmentSample sample =
        fold_sample(tallies, samples.size() + 1, wall.elapsed_seconds());
    if (options.timeline != nullptr)
      options.timeline->sample_now(sample.requests);
    if (options.on_segment) options.on_segment(sample);
    samples.push_back(sample);
  };
  {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      const std::size_t share =
          total / clients + (c < total % clients ? 1 : 0);
      threads.emplace_back([&, c, share] {
        ClientTally& tally = tallies[c];
        tally.counts.latencies.reserve(share);
        const Stopwatch pace;
        // The client's share is split at share * seg / segments — the
        // canonical (c + i) % apps request order is untouched; clients
        // merely rendezvous between chunks. Clients whose share rounds
        // to an empty chunk still arrive at every barrier (the barrier
        // counts threads, not requests).
        for (std::size_t seg = 1; seg <= segments; ++seg) {
          const std::size_t begin = share * (seg - 1) / segments;
          const std::size_t end = share * seg / segments;
          for (std::size_t i = begin; i < end; ++i) {
            // Open loop: request i is due at i / rate on this client's
            // clock regardless of how long earlier requests took.
            const bool open_loop = options.open_loop_rate_hz > 0.0;
            const double due =
                open_loop ? static_cast<double>(i) / options.open_loop_rate_hz
                          : 0.0;
            if (open_loop) {
              const double now = pace.elapsed_seconds();
              if (due > now)
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(due - now));
            }
            const std::size_t which = (c + i) % apps;
            serve::SolveRequest request = requests[which];
            if (options.deadline_seconds >= 0.0)
              request.deadline_seconds = options.deadline_seconds;
            const Result<serve::SolveResponse> r = service.solve(request);
            ++tally.counts.requests;
            if (!r.ok()) {
              ++tally.counts.errors;
              continue;
            }
            const serve::SolveResponse& response = r.value();
            classify(response, tally);
            // Open-loop latency runs from the scheduled send, so a stall
            // is also charged to the requests queued behind it (no
            // coordinated omission). The wedge check stays on service
            // time: it flags the slow response, not its victims.
            tally.counts.latencies.push_back(
                open_loop ? pace.elapsed_seconds() - due
                          : response.latency_seconds);
            if (options.wedge_seconds > 0.0 &&
                response.latency_seconds > options.wedge_seconds)
              ++tally.counts.wedged;
            // Full-quality responses must be byte-identical to the cold
            // reference; degraded ones are valid-by-construction
            // schemes the checker exempts.
            if (!response.degraded && which < reference.size() &&
                !reference[which].empty() &&
                response.placement != reference[which])
              ++tally.counts.mismatches;
          }
          // Barriers only matter for intermediate boundaries; with
          // segments == 1 the loop body runs once and the single
          // "boundary" is the post-join final sample below — no barrier
          // overhead on the seed path.
          if (seg < segments) barrier.arrive_and_wait(take_sample);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  // Final boundary: all clients joined, so the fold is single-threaded.
  // Emitted only when somebody asked for curves — the seed callers
  // (segments == 1, no sinks) see identical behavior to before.
  if (segments > 1 || options.on_segment || options.timeline != nullptr)
    take_sample();

  LoadOutcome out;
  out.wall_seconds = wall.elapsed_seconds();
  for (const ClientTally& tally : tallies) {
    const LoadOutcome& c = tally.counts;
    out.requests += c.requests;
    out.errors += c.errors;
    out.mismatches += c.mismatches;
    out.wedged += c.wedged;
    out.solved += c.solved;
    out.hits += c.hits;
    out.coalesced += c.coalesced;
    out.shed += c.shed;
    out.hedged += c.hedged;
    out.deadline_degraded += c.deadline_degraded;
    out.degraded += c.degraded;
    out.latencies.insert(out.latencies.end(), c.latencies.begin(),
                         c.latencies.end());
  }
  std::sort(out.latencies.begin(), out.latencies.end());
  out.samples = std::move(samples);
  return out;
}

}  // namespace mecoff::bench
