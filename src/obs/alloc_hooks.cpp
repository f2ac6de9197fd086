#include "obs/alloc_hooks.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

#include "obs/metrics.hpp"

namespace affectsys::obs {
namespace {

// constinit: the replacement operators below can run before any static
// constructor, so the counters must be constant-initialized.
constinit std::atomic<std::uint64_t> g_news{0};
constinit std::atomic<std::uint64_t> g_bytes{0};
constinit std::atomic<std::uint64_t> g_frees{0};

}  // namespace

bool alloc_tracking_enabled() noexcept {
#if AFFECTSYS_METRICS
  return true;
#else
  return false;
#endif
}

std::uint64_t alloc_count() noexcept {
  return g_news.load(std::memory_order_relaxed);
}

std::uint64_t alloc_bytes() noexcept {
  return g_bytes.load(std::memory_order_relaxed);
}

std::uint64_t free_count() noexcept {
  return g_frees.load(std::memory_order_relaxed);
}

void publish_alloc_gauges() {
  const std::uint64_t news = alloc_count();
  const std::uint64_t frees = free_count();
  AFFECTSYS_GAUGE_SET("obs.alloc.news", static_cast<double>(news));
  AFFECTSYS_GAUGE_SET("obs.alloc.live",
                      static_cast<double>(news) - static_cast<double>(frees));
}

}  // namespace affectsys::obs

#if AFFECTSYS_METRICS

// Replacement global allocation functions.  One strong definition set
// for the whole program: every operator new in every translation unit
// routes here, which is what makes alloc_count() a trustworthy "did
// this region allocate" probe.  malloc/free are the underlying
// allocator (sanitizer builds intercept those, so ASan/TSan still see
// every allocation).
namespace {

void count_new(std::size_t size) noexcept {
  affectsys::obs::g_news.fetch_add(1, std::memory_order_relaxed);
  affectsys::obs::g_bytes.fetch_add(size, std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  count_new(size);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t al) {
  count_new(size);
  const std::size_t a = static_cast<std::size_t>(al);
  void* p = nullptr;
  // posix_memalign requires a pointer-multiple alignment; every
  // extended-alignment request already satisfies that.
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a,
                     size == 0 ? 1 : size) != 0) {
    return nullptr;
  }
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;  // delete nullptr is a no-op, not a free
  affectsys::obs::g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(size, al)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(size, al)) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t size, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, al);
}
void* operator new[](std::size_t size, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, al);
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}

#endif  // AFFECTSYS_METRICS
