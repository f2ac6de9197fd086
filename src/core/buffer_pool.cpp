#include "core/buffer_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <new>
#include <stdexcept>

namespace affectsys::core {

void BufferRef::reset() {
  if (block_ == nullptr) {
    size_ = 0;
    return;
  }
  BufferBlock* b = block_;
  block_ = nullptr;
  size_ = 0;
  // acq_rel: the last releaser must observe every write the other
  // handles made into the payload before the block is reused or freed.
  if (b->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    if (b->pool != nullptr) {
      b->pool->release(b);
    } else {
      b->~BufferBlock();
      ::operator delete(static_cast<void*>(b));
    }
  }
}

BufferRef BufferRef::heap(std::size_t size) {
  if (size == 0) return {};
  void* mem = ::operator new(BufferBlock::payload_offset() + size);
  auto* block = new (mem) BufferBlock;
  block->refs.store(1, std::memory_order_relaxed);
  block->capacity = static_cast<std::uint32_t>(size);
  block->pool = nullptr;
  return BufferRef(block, size);
}

BufferPool::BufferPool(const BufferPoolConfig& cfg) : cfg_(cfg) {
  if (cfg_.block_size == 0 || cfg_.blocks == 0) {
    throw std::invalid_argument("BufferPool: block_size and blocks >= 1");
  }
  // Blocks are carved on first use (acquire), so the arena's pages
  // stay untouched until a block is actually needed.
  arena_ = static_cast<std::uint8_t*>(::operator new(
      stride() * cfg_.blocks, std::align_val_t{alignof(std::max_align_t)}));
}

BufferPool::~BufferPool() {
  // Contract: the pool outlives every BufferRef it issued; by now every
  // carved block is back on the free list and the control records are
  // trivially destructible.
  ::operator delete(static_cast<void*>(arena_),
                    std::align_val_t{alignof(std::max_align_t)});
}

BufferRef BufferPool::acquire(std::size_t size) {
  if (size == 0) return {};
  if (size <= cfg_.block_size) {
    std::lock_guard<std::mutex> lk(mu_);
    BufferBlock* block = free_head_;
    if (block != nullptr) {
      free_head_ = block->next;
      block->next = nullptr;
    } else if (carved_ < cfg_.blocks) {
      // Free list empty: carve the next block in address order.
      block = new (arena_ + carved_++ * stride()) BufferBlock;
      block->capacity = static_cast<std::uint32_t>(cfg_.block_size);
      block->pool = this;
    }
    if (block != nullptr) {
      block->refs.store(1, std::memory_order_relaxed);
      ++stats_.acquires;
      ++stats_.in_use;
      stats_.high_water = std::max(stats_.high_water, stats_.in_use);
      return BufferRef(block, size);
    }
    ++stats_.heap_fallbacks;
  } else {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.heap_fallbacks;
  }
  return BufferRef::heap(size);
}

void BufferPool::release(BufferBlock* block) {
  std::lock_guard<std::mutex> lk(mu_);
  block->next = free_head_;
  free_head_ = block;
  --stats_.in_use;
}

BufferPoolStats BufferPool::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace affectsys::core
