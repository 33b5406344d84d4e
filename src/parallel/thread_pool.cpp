#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>

#include "common/contracts.hpp"

namespace mecoff::parallel {

namespace {
// Which pool (if any) owns the calling thread. Set once per worker at
// startup; in_worker_thread() compares it against `this`, so threads of
// one pool are non-workers to every other pool.
thread_local ThreadPool* tl_owner_pool = nullptr;
// True while the calling thread runs the indices of a fanned-out
// parallel_for; any parallel_for it starts meanwhile runs inline.
thread_local bool tl_in_section = false;

// The shared state of one parallel_for call. The caller and its helper
// tasks each hold a shared_ptr, so a helper that starts after the call
// returned still reads valid, exhausted state.
struct Section {
  Section(std::size_t first, std::size_t last,
          const std::function<void(std::size_t)>& body)
      : next(first), end(last), total(last - first), fn(&body) {}

  /// Claim and run indices until none are left, then report how many
  /// ran. A thread that claimed nothing touches nothing but `next`.
  void claim_and_run() EXCLUDES(section_mutex) {
    std::size_t ran = 0;
    std::size_t failed = SIZE_MAX;
    std::exception_ptr failure;
    for (std::size_t i = next++; i < end; i = next++) {
      try {
        (*fn)(i);
      } catch (...) {
        // Indices are claimed in increasing order, so the first
        // failure is this thread's lowest.
        if (failure == nullptr) {
          failed = i;
          failure = std::current_exception();
        }
      }
      ++ran;
    }
    if (ran == 0) return;
    const MutexLock lock(section_mutex);
    done += ran;
    // Exceptions are moved, never copied, so the one that propagates is
    // released on the caller's thread. exception_ptr counts references
    // inside the uninstrumented C++ runtime; a release by a late helper
    // would look to TSAN like a race with the caller's catch block.
    if (failed < error_index) {
      error_index = failed;
      error = std::move(failure);
    }
    if (done == total) finished.notify_one();
  }

  /// Block until every index has run; rethrow the lowest failure.
  void wait() EXCLUDES(section_mutex) {
    std::exception_ptr failure;
    {
      const MutexLock lock(section_mutex);
      while (done < total) finished.wait(section_mutex);
      failure = std::move(error);
    }
    if (failure != nullptr) std::rethrow_exception(failure);
  }

  std::atomic<std::size_t> next;
  const std::size_t end;
  const std::size_t total;
  /// The caller's function. Dereferenced only for a claimed index, and
  /// the caller does not return before every claimed index has run.
  const std::function<void(std::size_t)>* const fn;
  Mutex section_mutex;
  CondVar finished;
  std::size_t done GUARDED_BY(section_mutex) = 0;
  std::size_t error_index GUARDED_BY(section_mutex) = SIZE_MAX;
  std::exception_ptr error GUARDED_BY(section_mutex);
};

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0)
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

bool ThreadPool::in_worker_thread() const { return tl_owner_pool == this; }

void ThreadPool::enqueue(std::function<void()> task) {
  {
    const MutexLock lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  tl_owner_pool = this;
  while (true) {
    std::function<void()> fn;
    {
      const MutexLock lock(mutex_);
      // Explicit predicate loop (not a wait-with-lambda): the guarded
      // reads stay inside the analysed critical section, and spurious
      // wakeups are handled the same way.
      while (!stopping_ && queue_.empty()) cv_.wait(mutex_);
      if (queue_.empty()) return;  // stopping and drained
      fn = std::move(queue_.front());
      queue_.pop_front();
    }
    fn();
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  MECOFF_EXPECTS(begin <= end);
  const auto section = std::make_shared<Section>(begin, end, fn);
  if (end - begin > 1 && !tl_in_section && !in_worker_thread()) {
    const std::size_t helpers = std::min(thread_count(), end - begin - 1);
    for (std::size_t h = 0; h < helpers; ++h)
      enqueue([section] { section->claim_and_run(); });
    tl_in_section = true;
    section->claim_and_run();
    tl_in_section = false;
  } else {
    section->claim_and_run();
  }
  section->wait();
}

void for_each_index(ThreadPool* pool, std::size_t n,
                    const std::function<void(std::size_t)>& fn) {
  if (pool != nullptr) {
    pool->parallel_for(0, n, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

}  // namespace mecoff::parallel
