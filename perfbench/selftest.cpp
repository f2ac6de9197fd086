// The benchmark's own tests: nearest-rank percentiles and the
// ten-samples-beyond rule on known vectors, per-session FIFO label
// matching on a hand-built trace, the traced-tick breakdown adding up
// to the traced tick, and the non-negative attribution fit.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  std::shuffle(v.begin(), v.end(), std::mt19937(7));
  return v;
}

TEST(Percentile, NearestRankOnKnownVectors) {
  const std::vector<double> v = one_to(100);
  EXPECT_EQ(percentile(v, 50), 50.0);
  EXPECT_EQ(percentile(v, 99), 99.0);
  EXPECT_EQ(percentile(v, 100), 100.0);
  EXPECT_EQ(percentile(v, 0.5), 1.0);
  EXPECT_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 50), 2.0);
  EXPECT_EQ(percentile({7.0}, 99), 7.0);
  EXPECT_EQ(percentile({}, 50), 0.0);
  EXPECT_EQ(percentile_rank(11, 50), 6u);
  EXPECT_EQ(percentile(one_to(1000), 99), 990.0);
}

TEST(Percentile, TenSamplesBeyondRule) {
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_TRUE(reportable(1000, 99));
  EXPECT_FALSE(reportable(999, 99));  // rank 990: nine beyond
  EXPECT_TRUE(reportable(20, 50));
  EXPECT_FALSE(reportable(19, 50));  // rank 10: nine beyond
  EXPECT_FALSE(reportable(0, 50));
}

TEST(LabelLatency, MatchesWindowsToLabelsPerSessionFifo) {
  LabelLatency m(2, 100.0);
  m.preload(1, 1);  // session 1 had a window in flight before measuring
  // Tick 10: session 0 stages two windows, session 1 one; session 1's
  // preloaded window is labelled (retired, not measured).
  m.staged(0, 10, 2);
  m.staged(1, 10, 1);
  m.applied(1, 10, 1, 4.0);
  // Tick 11 (6 ms): each session gets the label of its oldest window.
  m.staged(1, 11, 1);
  m.applied(0, 11, 1, 6.0);
  m.applied(1, 11, 1, 6.0);
  // Tick 12 (5 ms): session 0 stages one window and gets two labels —
  // its second tick-10 window and the one staged this very tick.
  m.staged(0, 12, 1);
  m.applied(0, 12, 2, 5.0);
  m.applied(1, 12, 1, 5.0);
  EXPECT_EQ(m.latencies_ms(),
            (std::vector<double>{106.0, 106.0, 205.0, 5.0, 105.0}));
  EXPECT_EQ(m.unmatched(), 0u);
  m.applied(0, 13, 1, 1.0);  // nothing left to retire
  EXPECT_EQ(m.unmatched(), 1u);
}

TEST(Breakdown, LinesSumToTheTracedTick) {
  // Three traced ticks whose stage spans leave gaps inside the tick.
  std::vector<TickTiming> ticks(3);
  ticks[0].tick_ms = 10.0;
  ticks[0].stage_ms = {0.2, 4.0, 0.0, 1.5, 3.0};
  ticks[1].tick_ms = 12.5;
  ticks[1].stage_ms = {0.3, 5.0, 0.0, 2.0, 4.5};
  ticks[2].tick_ms = 8.0;
  ticks[2].stage_ms = {0.1, 3.0, 0.4, 1.0, 2.5};
  const Breakdown b = breakdown(ticks);
  EXPECT_DOUBLE_EQ(b.tick_ms, 30.5 / 3.0);
  EXPECT_DOUBLE_EQ(b.stage_ms[kAudio], 4.0);
  EXPECT_NEAR(b.unattributed_ms, 1.0, 1e-12);
  EXPECT_NEAR(b.lines_sum_ms(), b.tick_ms, 1e-12);
  EXPECT_EQ(breakdown({}).lines_sum_ms(), 0.0);
}

TEST(NonNegativeFit, SplitsTimeByWorkCounts) {
  NonNegativeFit fit(3);  // {deblocked pictures, unfiltered pictures, 1}
  for (int on = 0; on < 4; ++on) {
    for (int off = 0; off < 3; ++off) {
      fit.add({static_cast<double>(on), static_cast<double>(off), 1.0},
              2.5 * on + 0.7 * off + 0.3);
    }
  }
  const NonNegativeFit::Row c = fit.solve();
  EXPECT_NEAR(c[0], 2.5, 1e-9);
  EXPECT_NEAR(c[1], 0.7, 1e-9);
  EXPECT_NEAR(c[2], 0.3, 1e-9);
}

TEST(NonNegativeFit, DropsNegativeAndEmptyColumns) {
  // Time falls as x grows, so the free slope is negative: x is dropped
  // and the intercept takes the mean.  Column 2 is never nonzero.
  NonNegativeFit fit(3);
  fit.add({1.0, 1.0, 0.0}, 1.0);
  fit.add({2.0, 1.0, 0.0}, 0.5);
  fit.add({3.0, 1.0, 0.0}, 0.0);
  const NonNegativeFit::Row c = fit.solve();
  EXPECT_EQ(c[0], 0.0);
  EXPECT_NEAR(c[1], 0.5, 1e-12);
  EXPECT_EQ(c[2], 0.0);
}

}  // namespace
}  // namespace perfbench
