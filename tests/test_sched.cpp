// Unit proofs for the serve layer's scheduling/memory primitives: the
// hierarchical timer wheel (due-tick exactness, ascending-key
// determinism, cascade correctness, zero steady-state allocation) and
// the refcounted buffer pool (lifecycle, free-list reuse, exhaustion
// fallback, cross-thread release).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "core/buffer_pool.hpp"
#include "core/timer_wheel.hpp"
#include "obs/alloc_hooks.hpp"

namespace core = affectsys::core;
namespace obs = affectsys::obs;

// ------------------------------------------------------------ TimerWheel

TEST(TimerWheel, FiresAtExactTickInAscendingKeyOrder) {
  core::TimerWheel wheel;
  // Scheduled out of key order, on purpose.
  wheel.schedule_at(3, 42);
  wheel.schedule_at(3, 7);
  wheel.schedule_at(3, 1000);
  wheel.schedule_at(5, 2);
  EXPECT_EQ(wheel.scheduled(), 4u);

  std::vector<std::uint64_t> due;
  for (std::uint64_t t = 0; t < 8; ++t) {
    due.clear();
    wheel.collect(t, due);
    if (t == 3) {
      ASSERT_EQ(due.size(), 3u);
      EXPECT_EQ(due[0], 7u);
      EXPECT_EQ(due[1], 42u);
      EXPECT_EQ(due[2], 1000u);
    } else if (t == 5) {
      ASSERT_EQ(due.size(), 1u);
      EXPECT_EQ(due[0], 2u);
    } else {
      EXPECT_TRUE(due.empty()) << "spurious fire at tick " << t;
    }
  }
  EXPECT_EQ(wheel.scheduled(), 0u);
}

TEST(TimerWheel, LateScheduleFiresOnNextCollect) {
  core::TimerWheel wheel;
  std::vector<std::uint64_t> due;
  for (std::uint64_t t = 0; t < 10; ++t) {
    due.clear();
    wheel.collect(t, due);
  }
  wheel.schedule_at(4, 99);  // already in the past
  due.clear();
  wheel.collect(10, due);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0], 99u);
}

TEST(TimerWheel, CascadesAcrossLevels) {
  core::TimerWheel wheel;
  // Level 1 (256..65535 ticks out) and level 2 (65536+ ticks out)
  // entries must fire at exactly their due tick after cascading.
  const std::uint64_t kLevel1 = 300;
  const std::uint64_t kLevel2 = 70000;
  wheel.schedule_at(kLevel1, 11);
  wheel.schedule_at(kLevel2, 22);

  std::vector<std::uint64_t> due;
  for (std::uint64_t t = 0; t <= kLevel2; ++t) {
    due.clear();
    wheel.collect(t, due);
    if (t == kLevel1) {
      ASSERT_EQ(due.size(), 1u);
      EXPECT_EQ(due[0], 11u);
    } else if (t == kLevel2) {
      ASSERT_EQ(due.size(), 1u);
      EXPECT_EQ(due[0], 22u);
    } else {
      ASSERT_TRUE(due.empty()) << "spurious fire at tick " << t;
    }
  }
}

TEST(TimerWheel, SteadyStateScheduleFireCycleDoesNotAllocate) {
  core::TimerWheel wheel;
  std::vector<std::uint64_t> due;
  due.reserve(64);
  // Warm: populate every slot vector the cycle will touch.
  std::uint64_t t = 0;
  for (; t < 512; ++t) {
    wheel.schedule_at(t + 1, t % 16);
    due.clear();
    wheel.collect(t, due);
  }
  const std::uint64_t before = obs::alloc_count();
  for (; t < 1024; ++t) {
    wheel.schedule_at(t + 1, t % 16);
    due.clear();
    wheel.collect(t, due);
  }
  if (obs::alloc_tracking_enabled()) {
    EXPECT_EQ(obs::alloc_count() - before, 0u);
  }
}

// ------------------------------------------------------------ BufferPool

TEST(BufferPool, RefcountLifecycleAndFreeListReuse) {
  core::BufferPool pool(core::BufferPoolConfig{256, 4});
  core::BufferRef a = pool.acquire(100);
  ASSERT_TRUE(a.pooled());
  EXPECT_EQ(a.size(), 100u);
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_EQ(pool.stats().in_use, 1u);

  std::uint8_t* const ptr = a.data();
  {
    core::BufferRef b = a;  // second handle, same block
    EXPECT_EQ(a.use_count(), 2u);
    EXPECT_EQ(b.data(), ptr);
    a.reset();
    // b still pins the block.
    EXPECT_EQ(pool.stats().in_use, 1u);
    EXPECT_EQ(b.use_count(), 1u);
  }
  // Last handle gone: block returned to the free list...
  EXPECT_EQ(pool.stats().in_use, 0u);
  // ...and the next acquire reuses it (LIFO free list).
  core::BufferRef c = pool.acquire(64);
  EXPECT_EQ(c.data(), ptr);
  EXPECT_EQ(pool.stats().heap_fallbacks, 0u);
}

// Blocks are carved on first use: fresh blocks come out in ascending
// arena order one stride apart, a released block is reused before the
// next fresh one, and an N-block pool hands out exactly N pooled blocks
// before the heap fallback.
TEST(BufferPool, FreshBlocksCarveInAddressOrder) {
  constexpr std::size_t kBlocks = 5;
  constexpr std::size_t kBlockSize = 256;
  core::BufferPool pool(core::BufferPoolConfig{kBlockSize, kBlocks});
  const std::size_t stride = core::BufferBlock::payload_offset() + kBlockSize;

  std::vector<core::BufferRef> held;
  held.push_back(pool.acquire(kBlockSize));
  held.push_back(pool.acquire(1));
  ASSERT_TRUE(held[0].pooled());
  ASSERT_TRUE(held[1].pooled());
  EXPECT_EQ(held[1].data(), held[0].data() + stride);

  std::uint8_t* const second = held[1].data();
  held[1].reset();
  held[1] = pool.acquire(8);  // LIFO reuse beats a fresh carve
  EXPECT_EQ(held[1].data(), second);

  for (std::size_t i = 2; i < kBlocks; ++i) {
    held.push_back(pool.acquire(8));
    ASSERT_TRUE(held[i].pooled()) << "block " << i;
    EXPECT_EQ(held[i].data(), held[i - 1].data() + stride) << "block " << i;
  }
  EXPECT_EQ(pool.stats().heap_fallbacks, 0u);
  EXPECT_EQ(pool.stats().in_use, kBlocks);

  const core::BufferRef extra = pool.acquire(8);
  EXPECT_FALSE(extra.pooled());
  EXPECT_EQ(pool.stats().heap_fallbacks, 1u);
  EXPECT_EQ(pool.stats().acquires, kBlocks + 1);  // one reuse above
  EXPECT_EQ(pool.stats().high_water, kBlocks);
}

// Block sizes need not be multiples of the alignment (the FEC blob
// cache sizes blocks to header + MTU): the stride rounds up, so every
// block's header and payload stay max_align_t-aligned.
TEST(BufferPool, OddBlockSizesKeepEveryBlockAligned) {
  for (const std::size_t block_size : {std::size_t{1}, std::size_t{113},
                                       std::size_t{1416}, std::size_t{1417}}) {
    core::BufferPool pool(core::BufferPoolConfig{block_size, 4});
    std::vector<core::BufferRef> held;
    for (int i = 0; i < 4; ++i) {
      held.push_back(pool.acquire(block_size));
      ASSERT_TRUE(held.back().pooled()) << block_size;
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(held.back().data()) %
                    alignof(std::max_align_t),
                0u)
          << "block size " << block_size << " block " << i;
      std::memset(held.back().data(), 0xC3, block_size);
    }
    EXPECT_GE(static_cast<std::size_t>(held[1].data() - held[0].data()),
              core::BufferBlock::payload_offset() + block_size);
  }
}

TEST(BufferPool, ExhaustionAndOversizeFallBackToHeap) {
  core::BufferPool pool(core::BufferPoolConfig{128, 2});
  core::BufferRef a = pool.acquire(10);
  core::BufferRef b = pool.acquire(10);
  EXPECT_TRUE(a.pooled());
  EXPECT_TRUE(b.pooled());

  core::BufferRef c = pool.acquire(10);  // pool empty
  EXPECT_FALSE(c.pooled());
  EXPECT_EQ(c.size(), 10u);
  EXPECT_EQ(pool.stats().heap_fallbacks, 1u);

  core::BufferRef d = pool.acquire(4096);  // wider than a block
  EXPECT_FALSE(d.pooled());
  EXPECT_EQ(d.size(), 4096u);

  // Heap-backed refs behave identically (write/read/release).
  std::memset(c.data(), 0xAB, c.size());
  EXPECT_EQ(c.span()[9], 0xAB);
  a.reset();
  core::BufferRef e = pool.acquire(10);  // freed block available again
  EXPECT_TRUE(e.pooled());
  EXPECT_EQ(pool.stats().high_water, 2u);
}

TEST(BufferPool, PooledAndHeapBuffersCarryIdenticalBytes) {
  core::BufferPool pool(core::BufferPoolConfig{512, 2});
  std::vector<std::uint8_t> src(300);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::uint8_t>(i * 7);
  }
  core::BufferRef pooled = pool.acquire(src.size());
  core::BufferRef heap = core::BufferRef::heap(src.size());
  std::memcpy(pooled.data(), src.data(), src.size());
  std::memcpy(heap.data(), src.data(), src.size());
  ASSERT_EQ(pooled.size(), heap.size());
  EXPECT_EQ(std::memcmp(pooled.data(), heap.data(), src.size()), 0);
}

// Blocks released from worker threads while the owner thread keeps
// acquiring: the refcount is atomic and the free list mutex-guarded, so
// a TSan build of this test is the data-race proof.
TEST(BufferPool, CrossThreadReleaseIsSafe) {
  core::BufferPool pool(core::BufferPoolConfig{256, 64});
  constexpr int kThreads = 4;
  constexpr int kRounds = 500;

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&pool] {
      for (int i = 0; i < kRounds; ++i) {
        core::BufferRef r = pool.acquire(128);
        r.data()[0] = static_cast<std::uint8_t>(i);
        core::BufferRef copy = r;  // bump/drop the refcount concurrently
        r.reset();
        copy.reset();
      }
    });
  }
  for (std::thread& th : workers) th.join();
  EXPECT_EQ(pool.stats().in_use, 0u);
  EXPECT_EQ(pool.stats().acquires,
            static_cast<std::uint64_t>(kThreads) * kRounds);
}
