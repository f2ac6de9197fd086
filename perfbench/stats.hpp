// Statistics the serve-loop benchmark reports, kept free of any serve
// type so the benchmark's own tests (selftest.cpp) can pin them on
// hand-built inputs:
//   - nearest-rank percentiles and the ten-samples-beyond rule that
//     decides whether a percentile may be reported at all;
//   - per-session FIFO matching of staged windows to applied labels,
//     which turns per-tick counter deltas into label latencies;
//   - the traced-tick breakdown, whose lines add up to the traced tick;
//   - a small non-negative least-squares fit that splits the time of a
//     call covering several layers by the work counts the call reports.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of the p-th percentile of n samples: the
/// smallest rank with at least p% of the samples at or below it.
inline std::size_t percentile_rank(std::size_t n, double p) {
  if (n == 0) return 0;
  const double r = std::ceil(p * static_cast<double>(n) / 100.0);
  if (r < 1.0) return 1;
  return std::min(n, static_cast<std::size_t>(r));
}

/// Samples strictly beyond the p-th percentile's rank.
inline std::size_t samples_beyond(std::size_t n, double p) {
  return n - percentile_rank(n, p);
}

/// A percentile is reportable only with at least ten samples beyond it
/// (so p99 needs at least 1000 samples).
inline bool reportable(std::size_t n, double p) {
  return n > 0 && samples_beyond(n, p) >= 10;
}

/// Nearest-rank percentile (0 for an empty sample).
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  const std::size_t k = percentile_rank(v.size(), p) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

/// Label staleness from per-tick counter deltas.  For every session the
/// caller reports, tick by tick, how many windows the session staged
/// (their audio chunk completed at that tick) and how many labels it
/// applied.  Labels retire that session's windows oldest first, and
/// each match yields
///   latency = tick_ms * (applying tick - staging tick) + applying tick wall.
/// Within one tick report staged() before applied(): stage A stages
/// before stage B applies, so a window can be labelled in its own tick.
class LabelLatency {
 public:
  LabelLatency(std::size_t sessions, double tick_ms)
      : fifo_(sessions), tick_ms_(tick_ms) {}

  /// Windows already outstanding when measurement starts: their labels
  /// retire them in order but are not measured.
  void preload(std::size_t session, std::uint64_t n) {
    fifo_[session].insert(fifo_[session].end(), n, kUnmeasured);
  }

  void staged(std::size_t session, std::uint64_t tick, std::uint64_t n) {
    fifo_[session].insert(fifo_[session].end(), n, tick);
  }

  void applied(std::size_t session, std::uint64_t tick, std::uint64_t n,
               double tick_wall_ms) {
    std::deque<std::uint64_t>& q = fifo_[session];
    for (std::uint64_t i = 0; i < n; ++i) {
      if (q.empty()) {
        ++unmatched_;
        continue;
      }
      const std::uint64_t staged_at = q.front();
      q.pop_front();
      if (staged_at == kUnmeasured) continue;
      latencies_.push_back(tick_ms_ * static_cast<double>(tick - staged_at) +
                           tick_wall_ms);
    }
  }

  const std::vector<double>& latencies_ms() const { return latencies_; }
  /// Labels that arrived with no staged window left to retire (always 0
  /// for a correct server).
  std::uint64_t unmatched() const { return unmatched_; }

 private:
  static constexpr std::uint64_t kUnmeasured =
      std::numeric_limits<std::uint64_t>::max();
  std::vector<std::deque<std::uint64_t>> fifo_;
  double tick_ms_;
  std::vector<double> latencies_;
  std::uint64_t unmatched_ = 0;
};

/// Stages of one tick in the order SessionManager::tick runs them.
/// kDue covers the tick's scheduling work at both ends: building the
/// due list and, on the timer wheel, filing the next wake-ups.
enum Stage : std::size_t { kDue, kAudio, kRooms, kInfer, kMedia, kStages };

/// Wall time of one traced tick and of each stage inside it.
struct TickTiming {
  double tick_ms = 0.0;
  std::array<double, kStages> stage_ms{};
};

/// Per-tick means over the traced ticks.  The stage lines plus
/// unattributed_ms (time inside the tick that no stage span covers: the
/// degrade-level update and the loop itself) add up to tick_ms.
struct Breakdown {
  double tick_ms = 0.0;
  std::array<double, kStages> stage_ms{};
  double unattributed_ms = 0.0;

  double lines_sum_ms() const {
    double s = unattributed_ms;
    for (const double v : stage_ms) s += v;
    return s;
  }
};

inline Breakdown breakdown(const std::vector<TickTiming>& ticks) {
  Breakdown b;
  if (ticks.empty()) return b;
  for (const TickTiming& t : ticks) {
    b.tick_ms += t.tick_ms;
    for (std::size_t s = 0; s < kStages; ++s) b.stage_ms[s] += t.stage_ms[s];
  }
  const auto n = static_cast<double>(ticks.size());
  b.tick_ms /= n;
  double staged = 0.0;
  for (double& v : b.stage_ms) {
    v /= n;
    staged += v;
  }
  b.unattributed_ms = b.tick_ms - staged;
  return b;
}

/// Least squares y ~ sum_j c_j * x_j with every c_j >= 0, over at most
/// kMaxCols columns (pass a constant-1 column for an intercept).  Only
/// the normal equations are kept, so observations stream through add().
/// solve() drops all-zero and collinear columns, then refits without
/// the most negative coefficient until none is negative — exact for the
/// handful of well-separated columns the attribution uses.
class NonNegativeFit {
 public:
  static constexpr std::size_t kMaxCols = 8;
  using Row = std::array<double, kMaxCols>;

  explicit NonNegativeFit(std::size_t cols) : cols_(std::min(cols, kMaxCols)) {}

  void add(const Row& x, double y) {
    for (std::size_t i = 0; i < cols_; ++i) {
      xty_[i] += x[i] * y;
      for (std::size_t j = 0; j < cols_; ++j) xtx_[i][j] += x[i] * x[j];
    }
  }

  Row solve() const {
    std::array<bool, kMaxCols> active{};
    for (std::size_t i = 0; i < cols_; ++i) active[i] = xtx_[i][i] > 0.0;
    for (;;) {
      Row coef{};
      std::array<std::size_t, kMaxCols> idx{};
      std::size_t k = 0;
      for (std::size_t i = 0; i < cols_; ++i) {
        if (active[i]) idx[k++] = i;
      }
      if (k == 0) return coef;
      // Gauss-Jordan elimination with partial pivoting on the active block.
      std::array<std::array<double, kMaxCols + 1>, kMaxCols> a{};
      for (std::size_t r = 0; r < k; ++r) {
        for (std::size_t c = 0; c < k; ++c) a[r][c] = xtx_[idx[r]][idx[c]];
        a[r][k] = xty_[idx[r]];
      }
      std::size_t collinear = kMaxCols;
      for (std::size_t c = 0; c < k; ++c) {
        std::size_t piv = c;
        for (std::size_t r = c + 1; r < k; ++r) {
          if (std::abs(a[r][c]) > std::abs(a[piv][c])) piv = r;
        }
        if (std::abs(a[piv][c]) <= 1e-9 * xtx_[idx[c]][idx[c]]) {
          collinear = c;
          break;
        }
        std::swap(a[piv], a[c]);
        for (std::size_t r = 0; r < k; ++r) {
          if (r == c) continue;
          const double f = a[r][c] / a[c][c];
          for (std::size_t cc = c; cc <= k; ++cc) a[r][cc] -= f * a[c][cc];
        }
      }
      if (collinear != kMaxCols) {
        active[idx[collinear]] = false;
        continue;
      }
      std::size_t worst = kMaxCols;
      double worst_v = 0.0;
      for (std::size_t r = 0; r < k; ++r) {
        coef[idx[r]] = a[r][k] / a[r][r];
        if (coef[idx[r]] < worst_v) {
          worst_v = coef[idx[r]];
          worst = idx[r];
        }
      }
      if (worst == kMaxCols) return coef;
      active[worst] = false;
    }
  }

 private:
  std::size_t cols_;
  std::array<Row, kMaxCols> xtx_{};
  Row xty_{};
};

}  // namespace perfbench
