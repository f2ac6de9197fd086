#include "h264/deblock.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <cstring>

#include "core/thread_pool.hpp"
#include "obs/metrics.hpp"

namespace affectsys::h264 {
namespace {

// Table 8-16 (alpha/beta as a function of indexA/indexB == QP here).
constexpr int kAlpha[52] = {
    0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,   0,   0,   0,  4,
    4,  5,  6,  7,  8,  9,  10, 12, 13, 15, 17, 20, 22,  25,  28,  32, 36,
    40, 45, 50, 56, 63, 71, 80, 90, 101, 113, 127, 144, 162, 182, 203, 226,
    255, 255};
constexpr int kBeta[52] = {
    0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  2,
    2,  2,  3,  3,  3,  3,  4,  4,  4,  6,  6,  7,  7,  8,  8,  9,  9,
    10, 10, 11, 11, 12, 12, 13, 13, 14, 14, 15, 15, 16, 16, 17, 17, 18, 18};

// tc0 clipping table (Table 8-17), rows are bs 1..3.
constexpr int kTc0[3][52] = {
    {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1,
     1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 6,
     6, 7, 8, 9},
    {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1,
     1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 4, 4, 5, 6, 7,
     8, 8, 10, 11},
    {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1,
     1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 4, 4, 5, 6, 7,
     9, 10, 11, 13}};

// ---------------------------------------------------------------------------
// Lane kernel.
//
// filter_lanes filters one edge across 16 lines at once, one lane per
// line.  Row k of the edge footprint (p3..p0 at k = -4..-1, q0..q3 at
// k = 0..3) holds its 16 samples contiguously at q0 + k * stride, so a
// horizontal luma edge is read in place (stride = row pitch) and a
// vertical one through a transposed copy.  Every lane computes both the
// strong (bS 4) and the normal (bS 1..3) result; lane masks built from
// its bS, tc0 and the alpha/beta tests pick what is stored, so the
// kernel has no data-dependent branch.  All samples are loaded before
// any store.  The returned count is the per-line filter's: 1 or 3 pixels
// per side for bS 4, and for bS 1..3 two plus one per side whose p1/q1
// update applies.
//
// Lanes are GCC/Clang vectors: one int16 per lane covers every
// intermediate (at most 8 * 255 + 4), comparisons yield all-ones lane
// masks and `mask ? a : b` selects per lane.  The compiler lowers each
// operation to the target's integer vectors (one AVX2 register, two
// SSE2 or NEON ones), with no per-ISA code here.  Lanes values never
// pass by value through a function boundary: without AVX that changes
// the calling convention, and GCC warns about it.

constexpr int kLanes = 16;
typedef std::uint8_t Bytes16 __attribute__((vector_size(16)));
typedef std::int16_t Lanes __attribute__((vector_size(32)));

Bytes16 load_bytes(const std::uint8_t* p) {
  Bytes16 b{};
  std::memcpy(&b, p, sizeof b);
  return b;
}

void store_bytes(std::uint8_t* p, const Bytes16 b) {
  std::memcpy(p, &b, sizeof b);
}

/// Clamps every lane of `v` into [lo, hi].
void clamp_lanes(Lanes& v, const Lanes& lo, const Lanes& hi) {
  v = v < lo ? lo : v;
  v = v > hi ? hi : v;
}

/// Per-frame thresholds, one copy per lane: QP is constant across a
/// frame, so the table lookups happen once per frame.
struct EdgeThresholds {
  Lanes alpha{};
  Lanes beta{};
  Lanes strong_gap{};  ///< |p0 - q0| bound of the 3-tap branch
  Lanes tc0_by_bs[4]{};  ///< index by bs (1..3)

  explicit EdgeThresholds(int qp) {
    // Adding a scalar to a vector adds it to every lane.
    const auto i16 = [](int v) { return static_cast<std::int16_t>(v); };
    alpha += i16(kAlpha[qp]);
    beta += i16(kBeta[qp]);
    strong_gap += i16((kAlpha[qp] >> 2) + 2);
    for (int bs = 1; bs <= 3; ++bs) tc0_by_bs[bs] += i16(kTc0[bs - 1][qp]);
  }
};

int filter_lanes(std::uint8_t* q0, const std::ptrdiff_t stride,
                 const std::uint8_t (&bs)[kLanes], const EdgeThresholds& th) {
  Lanes in[8]{};  // p3 p2 p1 p0 q0 q1 q2 q3
  for (int k = 0; k < 8; ++k) {
    in[k] = __builtin_convertvector(load_bytes(q0 + (k - 4) * stride), Lanes);
  }
  const Lanes &p3 = in[0], &p2 = in[1], &p1 = in[2], &p0 = in[3];
  const Lanes &q0v = in[4], &q1 = in[5], &q2 = in[6], &q3 = in[7];
  const Lanes b = __builtin_convertvector(load_bytes(bs), Lanes);
  // |x - y| < t as two one-sided tests.
  const Lanes on = (b != 0) & (p0 - q0v < th.alpha) & (q0v - p0 < th.alpha) &
                   (p1 - p0 < th.beta) & (p0 - p1 < th.beta) &
                   (q1 - q0v < th.beta) & (q0v - q1 < th.beta);
  const Lanes strong = b == 4;
  const Lanes ap = (p2 - p0 < th.beta) & (p0 - p2 < th.beta);
  const Lanes aq = (q2 - q0v < th.beta) & (q0v - q2 < th.beta);

  // bS 4: the 3-tap branch per side under the spatial-activity test,
  // otherwise the 1-tap one.
  const Lanes near = (p0 - q0v < th.strong_gap) & (q0v - p0 < th.strong_gap);
  const Lanes sp = ap & near;
  const Lanes sq = aq & near;
  const Lanes s_p0 = sp ? (p2 + 2 * p1 + 2 * p0 + 2 * q0v + q1 + 4) >> 3
                        : (2 * p1 + p0 + q1 + 2) >> 2;
  const Lanes s_p1 = sp ? (p2 + p1 + p0 + q0v + 2) >> 2 : p1;
  const Lanes s_p2 = sp ? (2 * p3 + 3 * p2 + p1 + p0 + q0v + 4) >> 3 : p2;
  const Lanes s_q0 = sq ? (q2 + 2 * q1 + 2 * q0v + 2 * p0 + p1 + 4) >> 3
                        : (2 * q1 + q0v + p1 + 2) >> 2;
  const Lanes s_q1 = sq ? (q2 + q1 + q0v + p0 + 2) >> 2 : q1;
  const Lanes s_q2 = sq ? (2 * q3 + 3 * q2 + q1 + q0v + p0 + 4) >> 3 : q2;

  // bS 1..3: the clipped normal filter.  Masks are -1, so tc0 - ap - aq
  // adds one per side.  p1 + dp stays within p1 and (p2 + avg) / 2, so
  // it needs no pixel clamp; with tc0 == 0 the clip pins it to p1.
  const Lanes tc0 = b == 1 ? th.tc0_by_bs[1]
                           : (b == 2 ? th.tc0_by_bs[2] : th.tc0_by_bs[3]);
  const Lanes tc = tc0 - ap - aq;
  Lanes delta = ((q0v - p0) * 4 + (p1 - q1) + 4) >> 3;
  clamp_lanes(delta, -tc, tc);
  const Lanes zero{};
  const Lanes max_pixel = zero + 255;
  Lanes n_p0 = p0 + delta;
  Lanes n_q0 = q0v - delta;
  clamp_lanes(n_p0, zero, max_pixel);
  clamp_lanes(n_q0, zero, max_pixel);
  const Lanes avg = (p0 + q0v + 1) >> 1;
  Lanes dp = (p2 + avg - 2 * p1) >> 1;
  Lanes dq = (q2 + avg - 2 * q1) >> 1;
  clamp_lanes(dp, -tc0, tc0);
  clamp_lanes(dq, -tc0, tc0);
  const Lanes n_p1 = ap ? p1 + dp : p1;
  const Lanes n_q1 = aq ? q1 + dq : q1;

  const Lanes on_strong = on & strong;
  const Lanes on_normal = on & ~strong;
  const Lanes out[6] = {on_strong ? s_p2 : p2,
                        on_strong ? s_p1 : on_normal ? n_p1 : p1,
                        on_strong ? s_p0 : on_normal ? n_p0 : p0,
                        on_strong ? s_q0 : on_normal ? n_q0 : q0v,
                        on_strong ? s_q1 : on_normal ? n_q1 : q1,
                        on_strong ? s_q2 : q2};
  for (int k = 0; k < 6; ++k) {
    store_bytes(q0 + (k - 3) * stride,
                __builtin_convertvector(out[k], Bytes16));
  }

  const Lanes tc0_pos = tc0 > 0;
  const Lanes count =
      (on_strong & (2 + (sp & 2) + (sq & 2))) |
      (on_normal & (2 + (ap & tc0_pos & 1) + (aq & tc0_pos & 1)));
  int modified = 0;
  for (int l = 0; l < kLanes; ++l) modified += count[l];
  return modified;
}

// ---------------------------------------------------------------------------
// Transposes.
//
// Each interleave below is one byte-unpack instruction on any target.
// One round over N rows writes row 2i as the interleaved low halves of
// rows i and i + N/2 and row 2i + 1 as their high halves.  Read a byte's
// place as the bit string (row, column): a round rotates it left by one
// bit.  Four rounds on 16 rows therefore transpose them (and undo
// themselves), and on 8 rows the rotation closes after seven.

template <int N>
void interleave_rounds(Bytes16 (&r)[N], const int rounds) {
  for (int round = 0; round < rounds; ++round) {
    Bytes16 t[N]{};
    for (int i = 0; i < N / 2; ++i) {
      t[2 * i] = __builtin_shufflevector(r[i], r[i + N / 2], 0, 16, 1, 17, 2,
                                         18, 3, 19, 4, 20, 5, 21, 6, 22, 7,
                                         23);
      t[2 * i + 1] = __builtin_shufflevector(r[i], r[i + N / 2], 8, 24, 9, 25,
                                             10, 26, 11, 27, 12, 28, 13, 29,
                                             14, 30, 15, 31);
    }
    for (int i = 0; i < N; ++i) r[i] = t[i];
  }
}

/// Copies the 16x16 block at `src` transposed to `dst`.
void transpose16(const std::uint8_t* src, const std::ptrdiff_t src_pitch,
                 std::uint8_t* dst, const std::ptrdiff_t dst_pitch) {
  Bytes16 r[16]{};
  for (int i = 0; i < 16; ++i) std::memcpy(&r[i], src + i * src_pitch, 16);
  interleave_rounds(r, 4);
  for (int i = 0; i < 16; ++i) std::memcpy(dst + i * dst_pitch, &r[i], 16);
}

// ---------------------------------------------------------------------------
// Luma passes.

/// bS of an MB's four luma edges in one direction, per lane: bs[e][l] for
/// edge e and lane l, which lies in segment l / 4.  Edge 0 is the MB edge
/// against `nb` (the left neighbour for vertical edges, the top one for
/// horizontal edges); at the frame border `nb` is null and edge 0 is not
/// filtered.
void luma_strengths(const MbInfo& cur, const MbInfo* nb, const bool vertical,
                    std::uint8_t (&bs)[4][kLanes]) {
  for (int e = 0; e < 4; ++e) {
    const MbInfo* p = e == 0 ? nb : &cur;
    for (int s = 0; s < 4; ++s) {
      int v = 0;
      if (p != nullptr) {
        const int q_blk = vertical ? s * 4 + e : e * 4 + s;
        const int p_blk = e == 0 ? (vertical ? s * 4 + 3 : 12 + s)
                                 : q_blk - (vertical ? 1 : 4);
        v = boundary_strength(*p, p_blk, cur, q_blk, e == 0);
      }
      std::fill_n(bs[e] + s * 4, 4, static_cast<std::uint8_t>(v));
    }
  }
}

/// Adds one filtered-or-not edge of four segments to `st`; returns true
/// when any segment has a nonzero bS.
bool count_edge(const std::uint8_t (&bs)[kLanes], DeblockStats& st) {
  const int filtered = (bs[0] != 0) + (bs[4] != 0) + (bs[8] != 0) +
                       (bs[12] != 0);
  st.edges_examined += 4;
  st.edges_filtered += static_cast<std::uint64_t>(filtered);
  return filtered != 0;
}

/// Vertical luma edges of MB row `mby`: the row's 16 lines are transposed
/// into per-thread scratch, so each edge's footprint becomes 8 rows of 16
/// lanes; edges run left to right there, then the row is transposed back.
void deblock_luma_row_vertical(Plane& Y, const std::vector<MbInfo>& mb_info,
                               const int mby, const EdgeThresholds& th,
                               DeblockStats& st) {
  const int mb_cols = Y.width / kMbSize;
  const std::ptrdiff_t pitch = Y.width;
  std::uint8_t* const rows = Y.data.data() + mby * kMbSize * pitch;
  // Capacity stays across frames: a steady-state decode allocates nothing.
  static thread_local std::vector<std::uint8_t> cols;
  cols.resize(static_cast<std::size_t>(Y.width) * kMbSize);
  for (int mbx = 0; mbx < mb_cols; ++mbx) {
    transpose16(rows + mbx * kMbSize, pitch,
                cols.data() + mbx * kMbSize * kMbSize, kMbSize);
  }
  const MbInfo* const info = mb_info.data() + mby * mb_cols;
  std::uint8_t bs[4][kLanes]{};
  for (int mbx = 0; mbx < mb_cols; ++mbx) {
    luma_strengths(info[mbx], mbx > 0 ? &info[mbx - 1] : nullptr, true, bs);
    for (int e = mbx > 0 ? 0 : 1; e < 4; ++e) {
      if (!count_edge(bs[e], st)) continue;
      const int x = mbx * kMbSize + e * 4;
      st.pixels_modified += static_cast<std::uint64_t>(
          filter_lanes(cols.data() + x * kMbSize, kMbSize, bs[e], th));
    }
  }
  for (int mbx = 0; mbx < mb_cols; ++mbx) {
    transpose16(cols.data() + mbx * kMbSize * kMbSize, kMbSize,
                rows + mbx * kMbSize, pitch);
  }
}

/// Horizontal luma edges of MB columns [c0, c1), in place: an edge's 16
/// columns within an MB are contiguous.  Each column sees its edges top
/// to bottom.
void deblock_luma_cols_horizontal(Plane& Y, const std::vector<MbInfo>& mb_info,
                                  const int c0, const int c1,
                                  const EdgeThresholds& th, DeblockStats& st) {
  const int mb_cols = Y.width / kMbSize;
  const int mb_rows = Y.height / kMbSize;
  const std::ptrdiff_t pitch = Y.width;
  std::uint8_t bs[4][kLanes]{};
  for (int mby = 0; mby < mb_rows; ++mby) {
    const MbInfo* const info = mb_info.data() + mby * mb_cols;
    for (int mbx = c0; mbx < c1; ++mbx) {
      luma_strengths(info[mbx], mby > 0 ? &info[mbx - mb_cols] : nullptr,
                     false, bs);
      for (int e = mby > 0 ? 0 : 1; e < 4; ++e) {
        if (!count_edge(bs[e], st)) continue;
        const int y = mby * kMbSize + e * 4;
        st.pixels_modified += static_cast<std::uint64_t>(filter_lanes(
            Y.data.data() + y * pitch + mbx * kMbSize, pitch, bs[e], th));
      }
    }
  }
}

/// Chroma macroblock edges, Cb and Cr together: lanes 0..7 and 8..15 of
/// the horizontal edge's footprint rows are Cb and Cr, and the vertical
/// edge's 8 Cb and 8 Cr lines interleave through the transpose.  Both
/// planes share the edge's bS (capped at 3) and thresholds, so any lane
/// order gives the per-plane result.  MBs run in raster order, each
/// vertical edge before its horizontal one, because neighbouring edges
/// overlap at the corners.
DeblockStats deblock_chroma(YuvFrame& frame, const std::vector<MbInfo>& mb_info,
                            const EdgeThresholds& th) {
  DeblockStats st;
  const int mb_cols = frame.mb_cols();
  const int mb_rows = frame.mb_rows();
  const std::ptrdiff_t pitch = frame.cb.width;
  std::uint8_t* const cb = frame.cb.data.data();
  std::uint8_t* const cr = frame.cr.data.data();
  // Footprint rows p3..q3, flat so the kernel's row offsets from q0
  // stay inside one array.
  std::uint8_t foot[8 * kLanes]{};
  std::uint8_t* const foot_q0 = foot + 4 * kLanes;
  std::uint8_t bs[kLanes]{};
  const auto edge_bs = [&](const MbInfo& p, int p_blk, const MbInfo& q) {
    const int s = std::min(boundary_strength(p, p_blk, q, 0, true), 3);
    std::fill_n(bs, kLanes, static_cast<std::uint8_t>(s));
    st.edges_examined += 2;
    st.edges_filtered += s > 0 ? 2 : 0;
    return s > 0;
  };
  for (int mby = 0; mby < mb_rows; ++mby) {
    for (int mbx = 0; mbx < mb_cols; ++mbx) {
      const MbInfo& cur = mb_info[static_cast<std::size_t>(mby) * mb_cols + mbx];
      const int x = mbx * 8;
      const int y = mby * 8;
      if (mbx > 0 && edge_bs(mb_info[static_cast<std::size_t>(mby) * mb_cols +
                                     mbx - 1],
                             3, cur)) {
        // Line l of the edge is bytes x-4..x+3 of row y+l; Cb fills the
        // low half of row l, Cr the high half.
        Bytes16 r[8]{};
        for (int l = 0; l < 8; ++l) {
          const std::ptrdiff_t at = (y + l) * pitch + x - 4;
          std::memcpy(&r[l], cb + at, 8);
          std::memcpy(reinterpret_cast<std::uint8_t*>(&r[l]) + 8, cr + at, 8);
        }
        interleave_rounds(r, 4);  // row k: sample x-4+k of all 16 lines
        std::memcpy(foot, r, sizeof foot);
        st.pixels_modified +=
            static_cast<std::uint64_t>(filter_lanes(foot_q0, kLanes, bs, th));
        std::memcpy(r, foot, sizeof foot);
        interleave_rounds(r, 3);
        for (int l = 0; l < 8; ++l) {
          const std::ptrdiff_t at = (y + l) * pitch + x - 4;
          std::memcpy(cb + at, &r[l], 8);
          std::memcpy(cr + at, reinterpret_cast<std::uint8_t*>(&r[l]) + 8, 8);
        }
      }
      if (mby > 0 &&
          edge_bs(mb_info[static_cast<std::size_t>(mby - 1) * mb_cols + mbx],
                  12, cur)) {
        for (int k = 0; k < 8; ++k) {
          const std::ptrdiff_t at = (y - 4 + k) * pitch + x;
          std::memcpy(foot + k * kLanes, cb + at, 8);
          std::memcpy(foot + k * kLanes + 8, cr + at, 8);
        }
        st.pixels_modified +=
            static_cast<std::uint64_t>(filter_lanes(foot_q0, kLanes, bs, th));
        for (int k = 0; k < 8; ++k) {
          const std::ptrdiff_t at = (y - 4 + k) * pitch + x;
          std::memcpy(cb + at, foot + k * kLanes, 8);
          std::memcpy(cr + at, foot + k * kLanes + 8, 8);
        }
      }
    }
  }
  return st;
}

}  // namespace

int deblock_alpha(int qp) { return kAlpha[std::clamp(qp, 0, 51)]; }
int deblock_beta(int qp) { return kBeta[std::clamp(qp, 0, 51)]; }

int boundary_strength(const MbInfo& p, int p_blk, const MbInfo& q, int q_blk,
                      bool mb_edge) {
  if (p.intra || q.intra) return mb_edge ? 4 : 3;
  if (p.nonzero[static_cast<std::size_t>(p_blk)] ||
      q.nonzero[static_cast<std::size_t>(q_blk)]) {
    return 2;
  }
  // Vectors are in half-pel units: a difference of one full sample
  // (>= 2 half-pels) marks a motion edge (spec 8.7.2 uses 4 quarter-pels).
  const int dmx = std::abs(p.mv.dx - q.mv.dx);
  const int dmy = std::abs(p.mv.dy - q.mv.dy);
  if (dmx >= 2 || dmy >= 2) return 1;
  return 0;
}

DeblockStats deblock_frame(YuvFrame& frame, const std::vector<MbInfo>& mb_info,
                           int qp) {
  AFFECTSYS_TIME_SCOPE("h264.deblock_ns");
  DeblockStats stats;
  qp = std::clamp(qp, 0, 51);
  const EdgeThresholds th(qp);
  const int mb_cols = frame.mb_cols();
  const int mb_rows = frame.mb_rows();

  // Vertical edges (filter across x = 4k boundaries), then horizontal —
  // the spec's pass ordering.  The vertical pass only touches pixels
  // inside its own 16-line macroblock row, and filters each line
  // independently, so it runs parallel over MB rows.  The horizontal
  // pass filters each pixel column independently (every filtered line
  // is vertical, at a fixed x), so it runs parallel over MB columns;
  // within a column the serial top-to-bottom edge order is preserved,
  // which keeps the output bit-exact against the serial build for any
  // thread count.  Chroma follows, serially.  Each task accumulates
  // stats into its own slot; the deterministic sum below keeps
  // DecodeActivity identical too.
  // Per-task stat slots live in thread-local scratch (capacity kept
  // across frames) and the pool-less build runs the task body directly:
  // a steady-state decode must not allocate (the serve layer pins
  // this).  Summing slots in index order — or accumulating serially —
  // gives the same integer totals either way.
  const bool serial = core::global_threads() == 0;
  static thread_local std::vector<DeblockStats> pass_stats;
  {
    AFFECTSYS_TIME_SCOPE("h264.deblock_v_ns");
    std::vector<DeblockStats>& row_stats = pass_stats;
    row_stats.assign(static_cast<std::size_t>(mb_rows), DeblockStats{});
    const auto v_task = [&](std::size_t r0, std::size_t r1) {
      for (std::size_t r = r0; r < r1; ++r) {
        deblock_luma_row_vertical(frame.y, mb_info, static_cast<int>(r), th,
                                  row_stats[r]);
      }
    };
    if (serial) {
      v_task(0, static_cast<std::size_t>(mb_rows));
    } else {
      core::parallel_for(0, static_cast<std::size_t>(mb_rows), 1, v_task);
    }
    for (const DeblockStats& st : row_stats) stats += st;
  }
  {
    AFFECTSYS_TIME_SCOPE("h264.deblock_h_ns");
    std::vector<DeblockStats>& col_stats = pass_stats;
    col_stats.assign(static_cast<std::size_t>(mb_cols), DeblockStats{});
    const auto h_task = [&](std::size_t c0, std::size_t c1) {
      deblock_luma_cols_horizontal(frame.y, mb_info, static_cast<int>(c0),
                                   static_cast<int>(c1), th, col_stats[c0]);
    };
    if (serial) {
      h_task(0, static_cast<std::size_t>(mb_cols));
    } else {
      core::parallel_for(0, static_cast<std::size_t>(mb_cols), 1, h_task);
    }
    for (const DeblockStats& st : col_stats) stats += st;
  }

  AFFECTSYS_TIME_SCOPE("h264.deblock_chroma_ns");
  stats += deblock_chroma(frame, mb_info, th);
  AFFECTSYS_COUNT("h264.deblock_edges_examined", stats.edges_examined);
  AFFECTSYS_COUNT("h264.deblock_edges_filtered", stats.edges_filtered);
  AFFECTSYS_COUNT("h264.deblock_pixels", stats.pixels_modified);
  return stats;
}

}  // namespace affectsys::h264
