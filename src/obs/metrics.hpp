// Observability layer: a process-wide metrics registry with counters,
// gauges, fixed-bucket latency histograms and scoped monotonic-clock
// timers, serializable to JSON (see obs/json.hpp).
//
// Metric names follow `subsystem.metric` (e.g. `h264.decode_ns`,
// `affect.windows_classified`); DESIGN.md "Observability" lists the
// conventions.  Instrumentation sites use the AFFECTSYS_* macros below,
// which resolve the registry entry once (function-local static) and then
// touch a single relaxed atomic — and compile to nothing when the build
// is configured with -DAFFECTSYS_METRICS=OFF, so instrumented hot loops
// carry zero cost in stripped builds.
//
// Thread-safety: registration takes a mutex; recorded metrics are relaxed
// atomics, so instrumented code may run concurrently once handles exist.
// Registered metrics are never removed, so references stay valid for the
// registry's lifetime.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>

namespace affectsys::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram: `bounds` are inclusive upper edges of the
/// first N buckets; one overflow bucket catches everything above the
/// last bound.  Bucket layout is fixed at registration, so observation
/// is a binary search plus two relaxed atomic adds.
class Histogram {
 public:
  static constexpr std::size_t kMaxBounds = 24;

  explicit Histogram(std::span<const double> bounds);

  void observe(double v) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  double mean() const noexcept {
    const std::uint64_t n = count();
    return n ? sum() / static_cast<double>(n) : 0.0;
  }
  std::span<const double> bounds() const noexcept {
    return {bounds_.data(), n_bounds_};
  }
  /// Count in bucket i (i == bounds().size() is the overflow bucket).
  std::uint64_t bucket_count(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void reset() noexcept;

 private:
  std::array<double, kMaxBounds> bounds_{};
  std::size_t n_bounds_ = 0;
  std::array<std::atomic<std::uint64_t>, kMaxBounds + 1> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Default histogram edges for durations in nanoseconds: powers of four
/// from 1 us to ~4.4 s.
std::span<const double> default_latency_bounds_ns();

/// Named metrics, registered on first use and kept for the registry's
/// lifetime.  `global()` is the process-wide instance every AFFECTSYS_*
/// macro records into, and is never destroyed; independent registries
/// can be created for tests.
class Registry {
 public:
  static Registry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// Default bounds are default_latency_bounds_ns(); explicit bounds are
  /// honoured only on first registration.
  Histogram& histogram(std::string_view name);
  Histogram& histogram(std::string_view name, std::span<const double> bounds);

  /// Zeroes every registered metric (registrations survive, so cached
  /// references stay valid).  Benchmarks call this between phases.
  void reset_values();

  /// Registered metrics: counters, gauges and histograms together.
  std::size_t series() const;

  /// Serializes all metrics as a JSON object with "counters", "gauges"
  /// and "histograms" sections, keys sorted by metric name.
  std::string to_json() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Builds the registry name for a metric inside a namespace scope:
/// "scope.name" — or `name` unchanged when `scope` is empty, so code
/// written against the un-prefixed conventions keeps producing the
/// exact names single-session tools already parse.
std::string scoped_metric_name(std::string_view scope, std::string_view name);

/// A per-instance metric namespace: every lookup goes through
/// scoped_metric_name(), so N concurrent sessions each get their own
/// `serve.s3.affect.windows_dropped`-style series instead of colliding
/// into one aggregate counter.  A default-constructed (empty-scope)
/// MetricScope resolves the legacy un-prefixed names, byte-compatible
/// with the AFFECTSYS_* macro sites.
///
/// Lookups take the registry mutex; callers on hot paths should resolve
/// once at construction and cache the returned references (they stay
/// valid for the registry's lifetime).
class MetricScope {
 public:
  MetricScope() : reg_(&Registry::global()) {}
  explicit MetricScope(std::string scope, Registry& reg = Registry::global())
      : scope_(std::move(scope)), reg_(&reg) {}

  Counter& counter(std::string_view name) const {
    return reg_->counter(scoped_metric_name(scope_, name));
  }
  Gauge& gauge(std::string_view name) const {
    return reg_->gauge(scoped_metric_name(scope_, name));
  }
  Histogram& histogram(std::string_view name) const {
    return reg_->histogram(scoped_metric_name(scope_, name));
  }
  Histogram& histogram(std::string_view name,
                       std::span<const double> bounds) const {
    return reg_->histogram(scoped_metric_name(scope_, name), bounds);
  }

  const std::string& scope() const { return scope_; }
  Registry& registry() const { return *reg_; }

 private:
  std::string scope_;
  Registry* reg_;
};

/// Records the lifetime of a scope into a histogram, in nanoseconds,
/// using the monotonic (steady) clock.
class ScopedTimerNs {
 public:
  explicit ScopedTimerNs(Histogram& h) noexcept
      : h_(&h), t0_(std::chrono::steady_clock::now()) {}
  ScopedTimerNs(const ScopedTimerNs&) = delete;
  ScopedTimerNs& operator=(const ScopedTimerNs&) = delete;
  ~ScopedTimerNs() {
    const auto dt = std::chrono::steady_clock::now() - t0_;
    h_->observe(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()));
  }

 private:
  Histogram* h_;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace affectsys::obs

// ---------------------------------------------------------------------------
// Instrumentation macros.  Each expands to a function-local static metric
// handle (one registry lookup per site, ever) plus a relaxed atomic
// operation — or to nothing when AFFECTSYS_METRICS is off.
// ---------------------------------------------------------------------------

#define AFFECTSYS_OBS_CONCAT2_(a, b) a##b
#define AFFECTSYS_OBS_CONCAT_(a, b) AFFECTSYS_OBS_CONCAT2_(a, b)

#if defined(AFFECTSYS_METRICS) && AFFECTSYS_METRICS

/// Adds `n` to counter `name`.
#define AFFECTSYS_COUNT(name, n)                                     \
  do {                                                               \
    static ::affectsys::obs::Counter& obs_counter_ =                 \
        ::affectsys::obs::Registry::global().counter(name);          \
    obs_counter_.add(static_cast<std::uint64_t>(n));                 \
  } while (0)

/// Sets gauge `name` to `v`.
#define AFFECTSYS_GAUGE_SET(name, v)                                 \
  do {                                                               \
    static ::affectsys::obs::Gauge& obs_gauge_ =                     \
        ::affectsys::obs::Registry::global().gauge(name);            \
    obs_gauge_.set(static_cast<double>(v));                          \
  } while (0)

/// Records `v` into histogram `name`.
#define AFFECTSYS_OBSERVE(name, v)                                   \
  do {                                                               \
    static ::affectsys::obs::Histogram& obs_hist_ =                  \
        ::affectsys::obs::Registry::global().histogram(name);        \
    obs_hist_.observe(static_cast<double>(v));                       \
  } while (0)

/// Times the rest of the enclosing scope into histogram `name` (ns).
#define AFFECTSYS_TIME_SCOPE(name)                                           \
  static ::affectsys::obs::Histogram& AFFECTSYS_OBS_CONCAT_(                 \
      obs_timer_hist_, __LINE__) =                                           \
      ::affectsys::obs::Registry::global().histogram(name);                  \
  ::affectsys::obs::ScopedTimerNs AFFECTSYS_OBS_CONCAT_(obs_timer_,          \
                                                        __LINE__)(           \
      AFFECTSYS_OBS_CONCAT_(obs_timer_hist_, __LINE__))

#else  // metrics disabled: instrumentation compiles away entirely.

#define AFFECTSYS_COUNT(name, n) ((void)0)
#define AFFECTSYS_GAUGE_SET(name, v) ((void)0)
#define AFFECTSYS_OBSERVE(name, v) ((void)0)
#define AFFECTSYS_TIME_SCOPE(name) ((void)0)

#endif  // AFFECTSYS_METRICS
