// Fixed-size worker pool. This is the execution backend of the
// mini-Spark engine (the repo's stand-in for the paper's Spark
// cluster).
//
// ONE LEVEL OF PARALLELISM. parallel_for is the pool's only fork-join,
// and it never nests. The calling thread runs indices itself; idle
// workers join through helper tasks that claim the remaining indices
// from the call's shared state. A call made on one of this pool's
// workers, from inside another fanned-out parallel_for, or over a
// single index runs every index inline on the calling thread. So no
// thread ever waits for work queued behind itself, and a helper that
// starts after the call returned finds nothing left to claim.
//
// Callers fan out at the coarsest independent unit: the distinct users
// of PipelineOffloader::solve, or the sub-graphs of a single-user
// solve (LPA compression and the per-component cut, Algorithm 1's
// per-sub-graph process); once those have joined, the users of the
// greedy's per-user set-up. Kernels such as SpMV and Lanczos stay
// serial: the pipeline only eigensolves compressed sub-graphs of a few
// dozen nodes, and per-matvec fan-out measured slower than serial.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"

namespace mecoff::parallel {

class ThreadPool {
 public:
  /// `threads == 0` means hardware_concurrency() (at least 1).
  explicit ThreadPool(std::size_t threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains outstanding work, then joins the workers.
  ~ThreadPool() EXCLUDES(mutex_);

  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

  /// True when the calling thread is one of THIS pool's workers.
  [[nodiscard]] bool in_worker_thread() const;

  /// Enqueue a task; the future resolves with its result (or exception).
  template <typename F>
  auto submit(F&& task) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto packaged =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(task));
    std::future<R> future = packaged->get_future();
    enqueue([packaged] { (*packaged)(); });
    return future;
  }

  /// make_group() and submit_to() exist only because perfbench/ still
  /// calls them: submit_to() is submit() and ignores the group.
  using TaskGroup = std::uint64_t;
  [[nodiscard]] TaskGroup make_group() const { return 0; }
  template <typename F>
  auto submit_to(TaskGroup /*group*/, F&& task)
      -> std::future<std::invoke_result_t<F>> {
    return submit(std::forward<F>(task));
  }

  /// Run fn(i) for every i in [begin, end); returns once all have run.
  /// Each index runs exactly once, on the calling thread or on a
  /// worker that joined through a helper task (see the file comment
  /// for when the call runs inline instead). When indices throw, every
  /// index still runs and the exception of the lowest throwing index
  /// propagates.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop() EXCLUDES(mutex_);

  /// Push under the lock, notify outside it.
  void enqueue(std::function<void()> task) EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mutex_);
  bool stopping_ GUARDED_BY(mutex_) = false;
};

/// Run fn(i) for every i in [0, n): through pool->parallel_for when
/// `pool` is non-null, else in a plain loop on the calling thread.
void for_each_index(ThreadPool* pool, std::size_t n,
                    const std::function<void(std::size_t)>& fn);

}  // namespace mecoff::parallel
