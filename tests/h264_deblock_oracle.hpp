// Per-line deblocking oracle and its input generators, shared by the
// kernel suite (tests/test_kernels.cpp) and bench_kernels' deblock block.
//
// deblock_frame_reference is the filter as first written: serial, one
// line at a time, every sample through Plane::at / at_clamped, a
// boundary_strength call per 4-line segment.  h264::deblock_frame must
// match it byte for byte, DeblockStats included.  The generators make
// inputs that reach every branch: random MbInfo mixing bS 0..4 across
// an edge's segments, and textures whose steps cluster around the QP's
// alpha, beta and strong-filter thresholds and reach both ends of the
// pixel range.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <vector>

#include "h264/deblock.hpp"
#include "h264/frame.hpp"

namespace affectsys::h264::oracle {

/// tc0 clipping table (Table 8-17), rows are bs 1..3.
inline constexpr int kTc0[3][52] = {
    {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1,
     1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 6,
     6, 7, 8, 9},
    {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1,
     1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 4, 4, 5, 6, 7,
     8, 8, 10, 11},
    {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1,
     1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 4, 4, 5, 6, 7,
     9, 10, 11, 13}};

/// How often each branch of the per-line filter ran (filtered lines
/// only), so a test can show its inputs reach all of them.
struct Coverage {
  std::uint64_t strong_p3 = 0;  ///< bS 4, 3-tap p side
  std::uint64_t strong_p1 = 0;  ///< bS 4, 1-tap p side
  std::uint64_t strong_q3 = 0;
  std::uint64_t strong_q1 = 0;
  std::uint64_t normal_ap = 0;     ///< bS 1..3 with ap < beta
  std::uint64_t normal_no_ap = 0;  ///< bS 1..3 with ap >= beta
  std::uint64_t normal_aq = 0;
  std::uint64_t normal_no_aq = 0;
  std::uint64_t normal_tc0_zero = 0;
  std::uint64_t clamp_low = 0;   ///< p0 + delta or q0 - delta below 0
  std::uint64_t clamp_high = 0;  ///< ... or above 255
};

/// Filters one line of an edge through accessors; returns the number of
/// pixels written.  get(k) / set(k, v) address the line's sample k, with
/// p0 at k = -1 and q0 at k = 0.
template <typename Get, typename Set>
int filter_line(int bs, int qp, Get get, Set set, Coverage* cov) {
  const int alpha = deblock_alpha(qp);
  const int beta = deblock_beta(qp);
  int p[4] = {}, q[4] = {};
  for (int i = 0; i < 4; ++i) {
    p[i] = get(-1 - i);
    q[i] = get(i);
  }
  if (std::abs(p[0] - q[0]) >= alpha || std::abs(p[1] - p[0]) >= beta ||
      std::abs(q[1] - q[0]) >= beta) {
    return 0;
  }
  Coverage unused;
  Coverage& c = cov != nullptr ? *cov : unused;
  int modified = 0;
  if (bs == 4) {
    // Strong filter (8.7.2.4 luma path, simplified to the 3-tap branch
    // plus the 5-tap branch under the spatial-activity condition).
    const bool strong_p = std::abs(p[2] - p[0]) < beta &&
                          std::abs(p[0] - q[0]) < (alpha >> 2) + 2;
    const bool strong_q = std::abs(q[2] - q[0]) < beta &&
                          std::abs(p[0] - q[0]) < (alpha >> 2) + 2;
    if (strong_p) {
      set(-1, (p[2] + 2 * p[1] + 2 * p[0] + 2 * q[0] + q[1] + 4) >> 3);
      set(-2, (p[2] + p[1] + p[0] + q[0] + 2) >> 2);
      set(-3, (2 * p[3] + 3 * p[2] + p[1] + p[0] + q[0] + 4) >> 3);
      modified += 3;
      ++c.strong_p3;
    } else {
      set(-1, (2 * p[1] + p[0] + q[1] + 2) >> 2);
      modified += 1;
      ++c.strong_p1;
    }
    if (strong_q) {
      set(0, (q[2] + 2 * q[1] + 2 * q[0] + 2 * p[0] + p[1] + 4) >> 3);
      set(1, (q[2] + q[1] + q[0] + p[0] + 2) >> 2);
      set(2, (2 * q[3] + 3 * q[2] + q[1] + q[0] + p[0] + 4) >> 3);
      modified += 3;
      ++c.strong_q3;
    } else {
      set(0, (2 * q[1] + q[0] + p[1] + 2) >> 2);
      modified += 1;
      ++c.strong_q1;
    }
  } else {
    const int ap = std::abs(p[2] - p[0]);
    const int aq = std::abs(q[2] - q[0]);
    const int tc0 = kTc0[bs - 1][qp];
    const int tc = tc0 + (ap < beta ? 1 : 0) + (aq < beta ? 1 : 0);
    const int delta =
        std::clamp(((q[0] - p[0]) * 4 + (p[1] - q[1]) + 4) >> 3, -tc, tc);
    set(-1, std::clamp(p[0] + delta, 0, 255));
    set(0, std::clamp(q[0] - delta, 0, 255));
    modified += 2;
    ++(ap < beta ? c.normal_ap : c.normal_no_ap);
    ++(aq < beta ? c.normal_aq : c.normal_no_aq);
    if (tc0 == 0) ++c.normal_tc0_zero;
    if (p[0] + delta < 0 || q[0] - delta < 0) ++c.clamp_low;
    if (p[0] + delta > 255 || q[0] - delta > 255) ++c.clamp_high;
    if (ap < beta && tc0 > 0) {
      const int dp = std::clamp(
          (p[2] + ((p[0] + q[0] + 1) >> 1) - 2 * p[1]) >> 1, -tc0, tc0);
      set(-2, p[1] + dp);
      ++modified;
    }
    if (aq < beta && tc0 > 0) {
      const int dq = std::clamp(
          (q[2] + ((p[0] + q[0] + 1) >> 1) - 2 * q[1]) >> 1, -tc0, tc0);
      set(1, q[1] + dq);
      ++modified;
    }
  }
  return modified;
}

/// The whole-frame oracle: vertical luma edges MB by MB in raster order,
/// then horizontal luma edges MB column by column, then each chroma
/// plane's MB edges (vertical before horizontal per MB, raster order).
inline DeblockStats deblock_frame_reference(YuvFrame& frame,
                                            const std::vector<MbInfo>& mb_info,
                                            int qp, Coverage* cov = nullptr) {
  DeblockStats stats;
  qp = std::clamp(qp, 0, 51);
  const int mb_cols = frame.mb_cols();
  const int mb_rows = frame.mb_rows();
  Plane& Y = frame.y;

  auto mb_at = [&](int mbx, int mby) -> const MbInfo& {
    return mb_info[static_cast<std::size_t>(mby) * mb_cols + mbx];
  };

  for (int mby = 0; mby < mb_rows; ++mby) {
    for (int mbx = 0; mbx < mb_cols; ++mbx) {
      const MbInfo& cur = mb_at(mbx, mby);
      for (int edge = 0; edge < 4; ++edge) {
        const int x = mbx * kMbSize + edge * 4;
        if (x == 0) continue;  // frame boundary
        const bool mb_edge = edge == 0;
        const MbInfo& left = mb_edge ? mb_at(mbx - 1, mby) : cur;
        for (int y4 = 0; y4 < 4; ++y4) {
          const int q_blk = y4 * 4 + edge;
          const int p_blk = mb_edge ? y4 * 4 + 3 : y4 * 4 + edge - 1;
          const int bs = boundary_strength(left, p_blk, cur, q_blk, mb_edge);
          ++stats.edges_examined;
          if (bs == 0) continue;
          ++stats.edges_filtered;
          const int y0 = mby * kMbSize + y4 * 4;
          for (int line = 0; line < 4; ++line) {
            const int yy = y0 + line;
            stats.pixels_modified += static_cast<std::uint64_t>(filter_line(
                bs, qp,
                [&](int off) { return static_cast<int>(Y.at(x + off, yy)); },
                [&](int off, int v) { Y.at(x + off, yy) = clamp_pixel(v); },
                cov));
          }
        }
      }
    }
  }
  for (int mbx = 0; mbx < mb_cols; ++mbx) {
    for (int mby = 0; mby < mb_rows; ++mby) {
      const MbInfo& cur = mb_at(mbx, mby);
      for (int edge = 0; edge < 4; ++edge) {
        const int y = mby * kMbSize + edge * 4;
        if (y == 0) continue;
        const bool mb_edge = edge == 0;
        const MbInfo& top = mb_edge ? mb_at(mbx, mby - 1) : cur;
        for (int x4 = 0; x4 < 4; ++x4) {
          const int q_blk = edge * 4 + x4;
          const int p_blk = mb_edge ? 3 * 4 + x4 : (edge - 1) * 4 + x4;
          const int bs = boundary_strength(top, p_blk, cur, q_blk, mb_edge);
          ++stats.edges_examined;
          if (bs == 0) continue;
          ++stats.edges_filtered;
          const int x0 = mbx * kMbSize + x4 * 4;
          for (int line = 0; line < 4; ++line) {
            const int xx = x0 + line;
            stats.pixels_modified += static_cast<std::uint64_t>(filter_line(
                bs, qp,
                [&](int off) { return static_cast<int>(Y.at(xx, y + off)); },
                [&](int off, int v) { Y.at(xx, y + off) = clamp_pixel(v); },
                cov));
          }
        }
      }
    }
  }
  for (Plane* C : {&frame.cb, &frame.cr}) {
    for (int mby = 0; mby < mb_rows; ++mby) {
      for (int mbx = 0; mbx < mb_cols; ++mbx) {
        const MbInfo& cur = mb_at(mbx, mby);
        if (mbx > 0) {
          const MbInfo& left = mb_at(mbx - 1, mby);
          const int bs = boundary_strength(left, 3, cur, 0, true);
          ++stats.edges_examined;
          if (bs > 0) {
            ++stats.edges_filtered;
            const int x = mbx * 8;
            for (int yy = mby * 8; yy < (mby + 1) * 8; ++yy) {
              stats.pixels_modified += static_cast<std::uint64_t>(filter_line(
                  std::min(bs, 3), qp,
                  [&](int off) {
                    return static_cast<int>(C->at_clamped(x + off, yy));
                  },
                  [&](int off, int v) {
                    if (x + off >= 0 && x + off < C->width)
                      C->at(x + off, yy) = clamp_pixel(v);
                  },
                  cov));
            }
          }
        }
        if (mby > 0) {
          const MbInfo& top = mb_at(mbx, mby - 1);
          const int bs = boundary_strength(top, 12, cur, 0, true);
          ++stats.edges_examined;
          if (bs > 0) {
            ++stats.edges_filtered;
            const int y = mby * 8;
            for (int xx = mbx * 8; xx < (mbx + 1) * 8; ++xx) {
              stats.pixels_modified += static_cast<std::uint64_t>(filter_line(
                  std::min(bs, 3), qp,
                  [&](int off) {
                    return static_cast<int>(C->at_clamped(xx, y + off));
                  },
                  [&](int off, int v) {
                    if (y + off >= 0 && y + off < C->height)
                      C->at(xx, y + off) = clamp_pixel(v);
                  },
                  cov));
            }
          }
        }
      }
    }
  }
  return stats;
}

// --- Inputs ---------------------------------------------------------------

/// Seeded MbInfo for a mb_cols x mb_rows frame: intra, skipped and
/// inter MBs, vectors within ±3 half-pels (so neighbours differ by less
/// or by more than one sample), and coded flags per 4x4 block, so an
/// edge's four segments mix bS 0, 1 and 2 next to all-3 and all-4
/// edges.
inline std::vector<MbInfo> random_mb_info(int mb_cols, int mb_rows,
                                          std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> kind(0, 7);
  std::uniform_int_distribution<int> mv(-3, 3);
  std::uniform_int_distribution<int> coded(0, 3);
  std::vector<MbInfo> info(static_cast<std::size_t>(mb_cols) * mb_rows);
  for (MbInfo& mb : info) {
    const int k = kind(rng);
    mb.intra = k == 0;
    mb.skipped = k == 1;
    if (mb.intra || mb.skipped) continue;
    mb.mv = {mv(rng), mv(rng)};
    for (bool& nz : mb.nonzero) nz = coded(rng) == 0;
  }
  return info;
}

/// Fills `p` with 4x4 blocks whose steps cluster around `qp`'s
/// thresholds.  A block's level is A(column) + B(row) - 128 plus a
/// jitter of at most 1, where A and B are random walks whose steps land
/// on either side of alpha and of the strong filter's (alpha >> 2) + 2,
/// so the step between two neighbouring blocks is controlled in both
/// directions.  Inside a block the two middle samples of a line add
/// their own offsets u and v (per block and direction, each on either
/// side of beta), so |p1 - p0|, |p2 - p0|, |q1 - q0| and |q2 - q0| each
/// straddle beta while the block's edge samples keep the level.  A
/// quarter of the levels fall outside [0, 255] and are clamped, so
/// edges also meet both ends of the pixel range.
inline void threshold_texture(Plane& p, int qp, std::uint32_t seed) {
  std::mt19937 rng(seed);
  const int alpha = std::max(deblock_alpha(qp), 2);
  const int beta = std::max(deblock_beta(qp), 2);
  const int gap = (alpha >> 2) + 2;
  const int edge_steps[] = {0, 1, gap - 1, gap, alpha - 1, alpha, 2 * alpha};
  const int inner_steps[] = {0, 1, beta / 2, beta - 1, beta};
  std::uniform_int_distribution<int> pick_edge(0, 6);
  std::uniform_int_distribution<int> pick_inner(0, 4);
  std::uniform_int_distribution<int> sign(0, 1);
  std::uniform_int_distribution<int> jitter(-1, 1);
  std::uniform_int_distribution<int> start(0, 255);
  const auto walk = [&](int n) {
    std::vector<int> w(static_cast<std::size_t>(n));
    int v = start(rng);
    for (int& x : w) {
      const int s = edge_steps[pick_edge(rng)];
      v += sign(rng) ? s : -s;
      if (v < -20 || v > 275) v = start(rng);
      x = v;
    }
    return w;
  };
  const auto inner = [&] {
    const int s = inner_steps[pick_inner(rng)];
    return sign(rng) ? s : -s;
  };
  const int bw = p.width / 4, bh = p.height / 4;
  const std::vector<int> a = walk(bw);
  const std::vector<int> b = walk(bh);
  for (int by = 0; by < bh; ++by) {
    for (int bx = 0; bx < bw; ++bx) {
      const int ox[4] = {0, inner(), inner(), 0};
      const int oy[4] = {0, inner(), inner(), 0};
      const int level = a[static_cast<std::size_t>(bx)] +
                        b[static_cast<std::size_t>(by)] - 128 + jitter(rng);
      for (int j = 0; j < 4; ++j) {
        for (int i = 0; i < 4; ++i) {
          p.at(bx * 4 + i, by * 4 + j) = clamp_pixel(level + ox[i] + oy[j]);
        }
      }
    }
  }
}

}  // namespace affectsys::h264::oracle
