// Pooled refcounted byte buffers: one arena, a free list, and an
// intrusive-refcount handle, so steady-state media payloads (staged
// feature windows, wire-format packet blobs) move by pointer with zero
// heap allocation.
//
// Layout: the arena is carved into fixed-size blocks, each headed by a
// BufferBlock control record (refcount, capacity, owning pool,
// free-list link) with the payload following at max_align_t alignment.
// acquire() pops the free list, or carves the next block in address
// order once the list is empty, so a pool only touches the blocks its
// peak use needs; the last BufferRef release pushes the block back.
// Requests larger than the block size — or arriving with every block
// in use — fall back to a heap-backed block with a null pool pointer
// (released straight to the allocator), so exhaustion degrades to the
// pre-pool behaviour instead of failing; the stats record how often.
//
// Thread-safety: acquire() and release are mutex-serialized (a block
// acquired on the serve thread may take its last release on a pool
// worker), and the refcount itself is atomic, so BufferRef copies can
// be dropped from any thread.  The pool must outlive every BufferRef
// it issued.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>

namespace affectsys::core {

class BufferPool;

/// Intrusive control record at the head of every block (pooled or
/// heap-fallback).  Internal to BufferPool/BufferRef.
struct BufferBlock {
  std::atomic<std::uint32_t> refs{0};
  std::uint32_t capacity = 0;  ///< payload bytes following the header
  BufferPool* pool = nullptr;  ///< null = heap fallback block
  BufferBlock* next = nullptr; ///< free-list link (pooled blocks only)

  std::uint8_t* payload() {
    return reinterpret_cast<std::uint8_t*>(this) + payload_offset();
  }
  static constexpr std::size_t payload_offset() {
    // Header rounded up so the payload is max_align_t-aligned (the
    // serve layer stages float matrices through these blocks).
    constexpr std::size_t a = alignof(std::max_align_t);
    return (sizeof(BufferBlock) + a - 1) / a * a;
  }
};

/// Shared handle to one buffer: copies bump the refcount, the last
/// destruction returns the block to its pool (or the heap).  A
/// default-constructed ref is empty (data() == nullptr, size() == 0).
class BufferRef {
 public:
  BufferRef() = default;
  ~BufferRef() { reset(); }

  BufferRef(const BufferRef& o) : block_(o.block_), size_(o.size_) {
    if (block_) block_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  BufferRef(BufferRef&& o) noexcept : block_(o.block_), size_(o.size_) {
    o.block_ = nullptr;
    o.size_ = 0;
  }
  BufferRef& operator=(const BufferRef& o) {
    if (this != &o) {
      if (o.block_) o.block_->refs.fetch_add(1, std::memory_order_relaxed);
      reset();
      block_ = o.block_;
      size_ = o.size_;
    }
    return *this;
  }
  BufferRef& operator=(BufferRef&& o) noexcept {
    if (this != &o) {
      reset();
      block_ = o.block_;
      size_ = o.size_;
      o.block_ = nullptr;
      o.size_ = 0;
    }
    return *this;
  }

  /// Drops this handle (releasing the block on the last one) and
  /// becomes empty.
  void reset();

  /// Heap-backed buffer with no pool behind it — the fallback the pool
  /// uses on exhaustion, also usable standalone where no pool exists.
  static BufferRef heap(std::size_t size);

  std::uint8_t* data() { return block_ ? block_->payload() : nullptr; }
  const std::uint8_t* data() const {
    return block_ ? block_->payload() : nullptr;
  }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::span<std::uint8_t> span() { return {data(), size_}; }
  std::span<const std::uint8_t> span() const { return {data(), size_}; }

  /// Handles (including this one) currently sharing the block.
  std::uint32_t use_count() const {
    return block_ ? block_->refs.load(std::memory_order_relaxed) : 0;
  }
  /// True when the block came from a pool free list (false for empty
  /// refs and heap fallbacks).
  bool pooled() const { return block_ != nullptr && block_->pool != nullptr; }

 private:
  friend class BufferPool;
  BufferRef(BufferBlock* block, std::size_t size)
      : block_(block), size_(size) {}

  BufferBlock* block_ = nullptr;
  std::size_t size_ = 0;
};

struct BufferPoolConfig {
  std::size_t block_size = 4096;  ///< payload bytes per pooled block
  std::size_t blocks = 256;       ///< blocks carved from the arena
};

struct BufferPoolStats {
  std::uint64_t acquires = 0;        ///< pooled blocks handed out
  std::uint64_t heap_fallbacks = 0;  ///< oversize or exhausted requests
  std::size_t in_use = 0;            ///< pooled blocks not on the free list
  std::size_t high_water = 0;        ///< max in_use ever
};

class BufferPool {
 public:
  explicit BufferPool(const BufferPoolConfig& cfg);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// A buffer of exactly `size` bytes: pooled when size fits a block
  /// and one is free, heap-backed otherwise (never fails short of the
  /// allocator failing).  acquire(0) returns an empty ref.
  BufferRef acquire(std::size_t size);

  std::size_t block_size() const { return cfg_.block_size; }
  std::size_t blocks() const { return cfg_.blocks; }
  BufferPoolStats stats() const;

 private:
  friend class BufferRef;
  void release(BufferBlock* block);

  /// Bytes from one block's header to the next, rounded up so every
  /// header (and payload) stays max_align_t-aligned whatever the block
  /// size.
  std::size_t stride() const {
    constexpr std::size_t a = alignof(std::max_align_t);
    return (BufferBlock::payload_offset() + cfg_.block_size + a - 1) / a * a;
  }

  BufferPoolConfig cfg_;
  std::uint8_t* arena_ = nullptr;
  mutable std::mutex mu_;
  BufferBlock* free_head_ = nullptr;  ///< released blocks, LIFO
  std::size_t carved_ = 0;            ///< blocks carved from the arena
  BufferPoolStats stats_;
};

}  // namespace affectsys::core
