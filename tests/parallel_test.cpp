// Unit tests for the mini-Spark engine: the thread pool and its one
// fork-join, parallel_for.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "parallel/thread_pool.hpp"

namespace mecoff::parallel {
namespace {

TEST(ThreadPool, SubmitReturnsFutureResult) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, DefaultsToAtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i)
    futures.push_back(pool.submit([&counter] { ++counter; }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(0, 100, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ParallelForExceptionPropagates) {
  // Every index still runs, and the exception of the lowest throwing
  // index propagates, whichever thread ran it.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(10);
  try {
    pool.parallel_for(0, 10, [&](std::size_t i) {
      ++hits[i];
      if (i == 3) throw std::runtime_error("bad 3");
      if (i == 7) throw std::runtime_error("bad 7");
    });
    FAIL() << "parallel_for swallowed the exceptions";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "bad 3");
  }
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// Runs `body` on a fresh thread and fails fast if it does not finish
// within `timeout` — the watchdog for the reentrancy regression tests,
// so a reintroduced nested-pool deadlock fails CI instead of hanging
// it. Returns false on timeout (the stuck thread is detached; the test
// process exits regardless).
bool completes_within(std::chrono::seconds timeout,
                      const std::function<void()>& body) {
  std::promise<void> done;
  std::future<void> done_future = done.get_future();
  std::thread runner([&body, &done] {
    body();
    done.set_value();
  });
  if (done_future.wait_for(timeout) != std::future_status::ready) {
    runner.detach();
    return false;
  }
  runner.join();
  return true;
}

TEST(ThreadPool, WorkerIdentityIsPerPool) {
  ThreadPool pool(1);
  ThreadPool other(1);
  EXPECT_FALSE(pool.in_worker_thread());
  EXPECT_TRUE(pool.submit([&] { return pool.in_worker_thread(); }).get());
  EXPECT_FALSE(pool.submit([&] { return other.in_worker_thread(); }).get());
}

// Regression for the shutdown-drain contract under contention: the
// destructor sets stopping_ and joins, but workers must keep popping
// until the queue is empty (worker_loop re-checks the queue after the
// stop flag), so every accepted task runs exactly once even when the
// pool dies with a deep backlog. Guarded by the clang thread-safety
// annotations: stopping_ and queue_ are GUARDED_BY(mutex_).
TEST(ThreadPool, DestructionDrainsBacklogEveryTaskRunsOnce) {
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  {
    ThreadPool pool(2);
    // A brief stall up front so most of the backlog is still queued
    // when the destructor starts racing the workers for mutex_.
    for (int i = 0; i < 2; ++i)
      futures.push_back(pool.submit(
          [] { std::this_thread::sleep_for(std::chrono::milliseconds(5)); }));
    for (int i = 0; i < 200; ++i)
      futures.push_back(pool.submit([&ran] { ++ran; }));
  }  // ~ThreadPool: stop, wake everyone, join — after draining
  EXPECT_EQ(ran.load(), 200);
  for (auto& f : futures) f.get();  // none may be a broken promise
}

// Regression for the nested-pool deadlock: a worker that called
// parallel_for used to block on chunks queued behind itself, so any
// nesting on a 1-thread pool hung. A call on a worker now runs inline.
TEST(ThreadPool, NestedParallelForOnSingleThreadCompletes) {
  std::atomic<int> hits{0};
  const bool finished = completes_within(std::chrono::seconds(60), [&] {
    ThreadPool pool(1);
    pool.submit([&] { pool.parallel_for(0, 16, [&](std::size_t) { ++hits; }); })
        .get();
  });
  ASSERT_TRUE(finished) << "nested parallel_for deadlocked (watchdog fired)";
  EXPECT_EQ(hits.load(), 16);
}

TEST(ThreadPool, DoublyNestedParallelSectionsComplete) {
  // The shapes the solve produces, three levels deep on one shared
  // pool: submitted tasks (one per served solve) and an external
  // parallel_for (users), each over components, each over rows.
  std::atomic<int> hits{0};
  const bool finished = completes_within(std::chrono::seconds(60), [&] {
    ThreadPool pool(2);
    const auto components = [&](std::size_t) {
      pool.parallel_for(0, 4, [&](std::size_t) {
        pool.parallel_for(0, 8, [&](std::size_t) { ++hits; });
      });
    };
    std::vector<std::future<void>> solves;
    for (std::size_t s = 0; s < 4; ++s)
      solves.push_back(pool.submit([&, s] { components(s); }));
    pool.parallel_for(0, 4, components);
    for (auto& f : solves) f.get();
  });
  ASSERT_TRUE(finished) << "doubly nested sections deadlocked";
  EXPECT_EQ(hits.load(), 2 * 4 * 4 * 8);
}

TEST(ThreadPool, NestedExceptionStillPropagates) {
  ThreadPool pool(1);
  auto outer = pool.submit([&] {
    pool.parallel_for(0, 8, [](std::size_t i) {
      if (i == 5) throw std::runtime_error("inner");
    });
  });
  EXPECT_THROW(outer.get(), std::runtime_error);
  // The same from an external caller, one level down.
  EXPECT_THROW(pool.parallel_for(0, 2,
                                 [&](std::size_t) {
                                   pool.parallel_for(0, 8, [](std::size_t i) {
                                     if (i == 5)
                                       throw std::runtime_error("inner");
                                   });
                                 }),
               std::runtime_error);
}

// Runs an inner parallel_for, recording the ids of the threads that
// ran its indices.
void record_inner(ThreadPool& pool, std::mutex& mutex,
                  std::set<std::thread::id>& ids) {
  pool.parallel_for(0, 32, [&](std::size_t) {
    // Long enough that idle workers would join a fanned-out call.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    const std::scoped_lock lock(mutex);
    ids.insert(std::this_thread::get_id());
  });
}

TEST(ThreadPool, ParallelForOnWorkerRunsInline) {
  ThreadPool pool(4);
  std::mutex mutex;
  std::set<std::thread::id> ids;
  const std::thread::id worker = pool.submit([&] {
    record_inner(pool, mutex, ids);
    return std::this_thread::get_id();
  }).get();
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(*ids.begin(), worker);
}

TEST(ThreadPool, ParallelForInsideParallelForRunsInline) {
  ThreadPool pool(4);
  std::mutex mutex;
  std::vector<std::set<std::thread::id>> inner(2);
  std::vector<std::thread::id> outer(2);
  pool.parallel_for(0, 2, [&](std::size_t i) {
    outer[i] = std::this_thread::get_id();
    record_inner(pool, mutex, inner[i]);
  });
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_EQ(inner[i].size(), 1u) << "outer index " << i;
    EXPECT_EQ(*inner[i].begin(), outer[i]);
  }
}

TEST(ThreadPool, ParallelForOverOneIndexRunsInlineAndLetsTheNextLevelFanOut) {
  ThreadPool pool(2);
  std::thread::id ran_on;
  std::atomic<int> ran_elsewhere{0};
  pool.parallel_for(3, 4, [&](std::size_t i) {
    EXPECT_EQ(i, 3u);
    const std::thread::id caller = std::this_thread::get_id();
    ran_on = caller;
    // A single-index call is not a parallel level, so this one fans
    // out: the caller holds one index until a worker has run the other.
    pool.parallel_for(0, 2, [&](std::size_t) {
      if (std::this_thread::get_id() != caller) {
        ++ran_elsewhere;
        return;
      }
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (ran_elsewhere.load() == 0 &&
             std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
    });
  });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_GE(ran_elsewhere.load(), 1);
}

// The caller claims indices itself, so a parallel_for from an external
// thread finishes even while every worker is busy. Helpers that start
// after it returned must find nothing left: the function is destroyed
// before the workers are released, and under ASan any late call is a
// use-after-free.
TEST(ThreadPool, ParallelForCompletesWhileWorkersAreBusyAndLateHelpersStayOut) {
  std::atomic<int> calls{0};
  auto fn = std::make_unique<std::function<void(std::size_t)>>(
      [&calls](std::size_t) { ++calls; });
  {
    ThreadPool pool(2);
    std::promise<void> release;
    const std::shared_future<void> gate = release.get_future().share();
    std::atomic<std::size_t> parked_count{0};
    std::vector<std::future<void>> parked;
    for (std::size_t w = 0; w < pool.thread_count(); ++w) {
      parked.push_back(pool.submit([gate, &parked_count] {
        ++parked_count;
        gate.wait();
      }));
    }
    while (parked_count.load() < pool.thread_count())
      std::this_thread::yield();

    const bool finished = completes_within(
        std::chrono::seconds(60), [&] { pool.parallel_for(0, 8, *fn); });
    EXPECT_TRUE(finished) << "parallel_for waited on parked workers";
    if (finished) fn.reset();
    release.set_value();
    for (auto& f : parked) f.get();
  }  // ~ThreadPool runs the queued late helpers before joining
  EXPECT_EQ(calls.load(), 8);
}

}  // namespace
}  // namespace mecoff::parallel
