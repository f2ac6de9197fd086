// Parallel runtime: a fixed-size thread pool with a future-returning
// submit() and a caller-participating parallel_for().
//
// This is the scaling substrate the hot paths share: row-parallel
// deblocking (h264/deblock.cpp), blocked GEMM (nn/matrix.cpp) and the
// session server's per-session stages (serve/server.cpp) all dispatch
// through the process-wide pool returned by global_pool().  The build flag
// -DAFFECTSYS_THREADS=OFF turns every pool into inline (serial)
// execution so the serial build stays the bit-exact reference; all
// parallel decompositions in this codebase are chosen so that results
// are identical for any thread count (see DESIGN.md "Parallel
// runtime").
//
// Semantics:
//  - submit(fn) enqueues fn and returns a std::future; with no worker
//    threads fn runs inline on the caller before submit() returns.
//  - parallel_for(begin, end, grain, fn) splits [begin, end) into
//    contiguous chunks of ~grain indices and invokes fn(lo, hi) for
//    each.  The caller participates in chunk execution, so the call
//    never deadlocks even when every worker is busy.  A parallel_for
//    issued from inside a pool task of the same pool runs inline
//    (nested parallelism does not oversubscribe or deadlock).
//  - The first exception thrown by any chunk is rethrown on the caller
//    after all claimed chunks finished; remaining chunks are skipped.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace affectsys::core {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means inline (serial) execution.  When
  /// the build is configured with -DAFFECTSYS_THREADS=OFF the requested
  /// count is clamped to 0, so no build-gated call site needs an #if.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (0 = inline mode).
  std::size_t size() const { return workers_.size(); }

  /// True when called from one of this pool's worker threads.
  bool on_pool_thread() const;

  /// Runs `fn` asynchronously; the returned future carries the result
  /// or exception.  Inline mode executes before returning.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    if (workers_.empty()) {
      (*task)();
    } else {
      enqueue([task] { (*task)(); });
    }
    return fut;
  }

  /// Chunked loop over [begin, end); fn(lo, hi) receives half-open
  /// subranges whose boundaries depend only on (begin, end, grain) —
  /// never on the thread count — so decompositions that are
  /// order-independent per chunk produce identical results at any pool
  /// size.  Blocks until every chunk completed.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  void enqueue(std::function<void()> task);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> tasks_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Process-wide pool used by the instrumented hot paths.  Created on
/// first use with default_thread_count() workers.
ThreadPool& global_pool();

/// Replaces the global pool with one of `n` workers (clamped to 0 when
/// AFFECTSYS_THREADS is off).  Not safe while work is in flight; meant
/// for benchmarks and tests that sweep thread counts.
void set_global_threads(std::size_t n);

/// Worker count of the global pool (0 = serial).
std::size_t global_threads();

/// Default worker count: 0 when built with -DAFFECTSYS_THREADS=OFF,
/// otherwise the AFFECTSYS_NUM_THREADS environment variable, otherwise
/// hardware_concurrency() (0 on single-core hosts, where a pool only
/// adds overhead).
std::size_t default_thread_count();

/// Convenience: parallel_for on the global pool.
inline void parallel_for(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  global_pool().parallel_for(begin, end, grain, fn);
}

}  // namespace affectsys::core
