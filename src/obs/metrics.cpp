#include "obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/json.hpp"

namespace affectsys::obs {

Histogram::Histogram(std::span<const double> bounds) {
  if (bounds.size() > kMaxBounds) {
    throw std::invalid_argument("Histogram: too many bucket bounds");
  }
  if (!std::is_sorted(bounds.begin(), bounds.end())) {
    throw std::invalid_argument("Histogram: bounds must be sorted");
  }
  n_bounds_ = bounds.size();
  std::copy(bounds.begin(), bounds.end(), bounds_.begin());
}

void Histogram::observe(double v) noexcept {
  const double* begin = bounds_.data();
  const double* end = begin + n_bounds_;
  const double* it = std::lower_bound(begin, end, v);
  buckets_[static_cast<std::size_t>(it - begin)].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

void Histogram::reset() noexcept {
  for (std::size_t i = 0; i <= n_bounds_; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::span<const double> default_latency_bounds_ns() {
  // Powers of four from 1 us to ~4.4 s: wide enough for a NAL parse and
  // for a whole mode-profiling decode, in 12 buckets.
  static const double kBounds[] = {1e3,    4e3,    16e3,   64e3,
                                   256e3,  1024e3, 4096e3, 16384e3,
                                   65536e3, 262144e3, 1048576e3, 4194304e3};
  return kBounds;
}

std::string scoped_metric_name(std::string_view scope, std::string_view name) {
  if (scope.empty()) return std::string(name);
  std::string out;
  out.reserve(scope.size() + 1 + name.size());
  out.append(scope);
  out.push_back('.');
  out.append(name);
  return out;
}

// Never destroyed: pool workers (and other static objects) may still
// record metrics while statics are torn down at exit, after a
// function-local registry would already be gone.
Registry& Registry::global() {
  static Registry* const r = new Registry;
  return *r;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  return histogram(name, default_latency_bounds_ns());
}

Histogram& Registry::histogram(std::string_view name,
                               std::span<const double> bounds) {
  std::lock_guard lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name),
                             std::make_unique<Histogram>(bounds))
             .first;
  }
  return *it->second;
}

void Registry::reset_values() {
  std::lock_guard lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

std::size_t Registry::series() const {
  std::lock_guard lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

std::string Registry::to_json() const {
  std::lock_guard lock(mu_);
  JsonWriter w;
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, c] : counters_) w.key(name).value(c->value());
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, g] : gauges_) w.key(name).value(g->value());
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : histograms_) {
    w.key(name).begin_object();
    w.key("count").value(h->count());
    w.key("sum").value(h->sum());
    w.key("mean").value(h->mean());
    w.key("buckets").begin_array();
    const auto bounds = h->bounds();
    for (std::size_t i = 0; i <= bounds.size(); ++i) {
      if (h->bucket_count(i) == 0) continue;  // keep snapshots compact
      w.begin_object();
      if (i < bounds.size()) {
        w.key("le").value(bounds[i]);
      } else {
        w.key("le").value("+inf");
      }
      w.key("count").value(h->bucket_count(i));
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

}  // namespace affectsys::obs
