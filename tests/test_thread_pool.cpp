// Tests for the parallel runtime (core/thread_pool): submit futures,
// parallel_for coverage and exception semantics, nested loops, and the
// global-pool controls.
//
// Everything here must pass in both build modes: with
// -DAFFECTSYS_THREADS=OFF every pool is clamped to 0 workers and the
// same semantics hold via the inline (serial) path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <future>
#include <latch>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/thread_pool.hpp"

namespace core = affectsys::core;

namespace {

/// Workers actually spawned for a requested count: the build flag clamps
/// every pool to inline mode when threads are off.
std::size_t effective(std::size_t requested) {
#if defined(AFFECTSYS_THREADS) && AFFECTSYS_THREADS
  return requested;
#else
  (void)requested;
  return 0;
#endif
}

/// Restores the global pool to its default size on scope exit so thread
/// sweeps in one test cannot leak into another.
struct GlobalPoolGuard {
  ~GlobalPoolGuard() { core::set_global_threads(core::default_thread_count()); }
};

}  // namespace

// ------------------------------------------------------------------ submit

TEST(ThreadPool, SubmitReturnsValueThroughFuture) {
  core::ThreadPool pool(2);
  EXPECT_EQ(pool.size(), effective(2));
  auto fut = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesExceptionThroughFuture) {
  core::ThreadPool pool(2);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, InlinePoolRunsSubmitOnCaller) {
  core::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  const auto caller = std::this_thread::get_id();
  auto fut = pool.submit([] { return std::this_thread::get_id(); });
  // With no workers the task must have executed before submit returned.
  EXPECT_EQ(fut.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(fut.get(), caller);
}

TEST(ThreadPool, OnPoolThreadDistinguishesWorkersFromCaller) {
  core::ThreadPool pool(1);
  EXPECT_FALSE(pool.on_pool_thread());
  auto fut = pool.submit([&pool] { return pool.on_pool_thread(); });
  // A worker sees true; in inline mode the caller (not a pool thread)
  // executes the task and sees false.
  EXPECT_EQ(fut.get(), pool.size() > 0);
}

// -------------------------------------------------------------- parallel_for

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 1000;
  for (const std::size_t threads : {0u, 1u, 4u}) {
    for (const std::size_t grain : {1u, 7u, 64u, 5000u}) {
      core::ThreadPool pool(threads);
      std::vector<std::atomic<int>> hits(kN);
      pool.parallel_for(0, kN, grain, [&](std::size_t lo, std::size_t hi) {
        ASSERT_LE(lo, hi);
        ASSERT_LE(hi, kN);
        for (std::size_t i = lo; i < hi; ++i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        }
      });
      for (std::size_t i = 0; i < kN; ++i) {
        ASSERT_EQ(hits[i].load(), 1)
            << "index " << i << " threads=" << threads << " grain=" << grain;
      }
    }
  }
}

TEST(ThreadPool, ParallelForChunkBoundariesIndependentOfThreadCount) {
  // The decompositions in deblock/matmul rely on chunk boundaries being
  // a pure function of (begin, end, grain) — never of the worker count.
  using Range = std::pair<std::size_t, std::size_t>;
  auto collect = [](std::size_t threads) {
    core::ThreadPool pool(threads);
    std::mutex mu;
    std::vector<Range> chunks;
    pool.parallel_for(3, 103, 9, [&](std::size_t lo, std::size_t hi) {
      std::lock_guard<std::mutex> lk(mu);
      chunks.emplace_back(lo, hi);
    });
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };
  const auto serial = collect(0);
  EXPECT_EQ(collect(1), serial);
  EXPECT_EQ(collect(4), serial);
}

TEST(ThreadPool, ParallelForZeroRangeNeverInvokesBody) {
  core::ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, 1, [&](std::size_t, std::size_t) { ++calls; });
  pool.parallel_for(7, 3, 1, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, ParallelForGrainLargerThanRangeIsOneChunk) {
  core::ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(10, 20, 100, [&](std::size_t lo, std::size_t hi) {
    EXPECT_EQ(lo, 10u);
    EXPECT_EQ(hi, 20u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPool, ParallelForRethrowsFirstChunkException) {
  for (const std::size_t threads : {0u, 1u, 4u}) {
    core::ThreadPool pool(threads);
    EXPECT_THROW(
        pool.parallel_for(0, 100, 10,
                          [](std::size_t lo, std::size_t) {
                            if (lo == 50) throw std::runtime_error("chunk");
                          }),
        std::runtime_error)
        << "threads=" << threads;
  }
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  core::ThreadPool pool(2);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 100;
  std::vector<std::atomic<std::size_t>> sums(kOuter);
  pool.parallel_for(0, kOuter, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t o = lo; o < hi; ++o) {
      // The inner loop issued from a pool task must not wait on workers
      // that are all busy with outer chunks (bounded-pool deadlock); it
      // runs inline instead.
      pool.parallel_for(0, kInner, 8, [&](std::size_t ilo, std::size_t ihi) {
        for (std::size_t i = ilo; i < ihi; ++i) {
          sums[o].fetch_add(i + 1, std::memory_order_relaxed);
        }
      });
    }
  });
  for (std::size_t o = 0; o < kOuter; ++o) {
    EXPECT_EQ(sums[o].load(), kInner * (kInner + 1) / 2) << "outer " << o;
  }
}

TEST(ThreadPool, PoolOfSizeOneCompletesParallelFor) {
  core::ThreadPool pool(1);
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(0, 256, 16, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(sum.load(), 255u * 256u / 2);
}

// ------------------------------------------------------------- global pool

TEST(GlobalPool, SetGlobalThreadsResizesAndFreeFunctionDispatches) {
  GlobalPoolGuard guard;
  core::set_global_threads(2);
  EXPECT_EQ(core::global_threads(), effective(2));
  std::atomic<std::size_t> count{0};
  core::parallel_for(0, 64, 4, [&](std::size_t lo, std::size_t hi) {
    count.fetch_add(hi - lo, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 64u);
  core::set_global_threads(0);
  EXPECT_EQ(core::global_threads(), 0u);
}

TEST(GlobalPool, DefaultThreadCountRespectsBuildFlag) {
#if defined(AFFECTSYS_THREADS) && AFFECTSYS_THREADS
  // Threads enabled: the default may still be 0 (single-core host or
  // AFFECTSYS_NUM_THREADS=0), so only sanity-bound it.
  EXPECT_LE(core::default_thread_count(), 1024u);
#else
  EXPECT_EQ(core::default_thread_count(), 0u);
#endif
}

// ------------------------------------------------------------ process exit

namespace {

/// Holds pool workers until the gate is destroyed.  Its destructor then
/// waits until every worker is past the queued tasks and exercises the
/// allocator, so heap damage done by those tasks aborts here instead of
/// passing unnoticed.
struct ExitGate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;

  void wait() {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [this] { return open; });
  }
  ~ExitGate() {
    {
      std::lock_guard<std::mutex> lk(mu);
      open = true;
    }
    cv.notify_all();
    // FIFO queue: these run after every queued helper, and each holds
    // its worker until all are running, so no helper is still running.
    core::ThreadPool& pool = core::global_pool();
    std::latch all(static_cast<std::ptrdiff_t>(pool.size()));
    std::vector<std::future<void>> done;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      done.push_back(pool.submit([&all] { all.arrive_and_wait(); }));
    }
    for (std::future<void>& f : done) f.wait();
    for (int round = 0; round < 4; ++round) {
      std::vector<void*> blocks;
      for (int i = 0; i < 64; ++i) blocks.push_back(std::malloc(16));
      for (void* b : blocks) std::free(b);
    }
  }
};

}  // namespace

// parallel_for enqueues helpers that stay queued when the caller runs
// every chunk itself.  The global pool drains them while static objects
// are destroyed at exit, and each task a worker runs updates pool
// metrics, so the metrics registry must still be alive then.  The child
// parks every worker behind a gate constructed before the registry, so
// the gate is destroyed (and the workers released) only after every
// static constructed later is gone; the queued helpers run after that.
TEST(GlobalPool, QueuedHelpersDrainSafelyAtExit) {
  if (effective(1) == 0) GTEST_SKIP() << "threads compiled out";
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        static ExitGate gate;
        constexpr std::size_t kWorkers = 4;
        core::set_global_threads(kWorkers);
        core::ThreadPool& pool = core::global_pool();
        std::latch parked(kWorkers);
        for (std::size_t i = 0; i < kWorkers; ++i) {
          pool.submit([&parked] {
            parked.count_down();
            gate.wait();
          });
        }
        parked.wait();
        pool.parallel_for(0, 8, 1, [](std::size_t, std::size_t) {});
        std::exit(0);
      },
      testing::ExitedWithCode(0), "");
}
