#include "h264/inter.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "h264/intra.hpp"  // sad_block

namespace affectsys::h264 {

namespace {

/// Largest window the half-pel filter reads: the block plus the 6-tap
/// filter's two samples before and three after, on each axis.
constexpr int kWin = kMbSize + 5;

void check_block_size(int size, const char* who) {
  if (size < 1 || size > kMbSize) {
    throw std::invalid_argument(std::string(who) +
                                ": size must lie in [1, 16]");
  }
}

/// Copies the w x h window of `ref` whose top-left sample is (x, y) into
/// `out` (row stride w).  Coordinates outside the plane read the nearest
/// edge sample, as Plane::at_clamped does, but each row is clamped once
/// and copied whole when it lies inside the plane.
void fetch_clamped(const Plane& ref, int x, int y, int w, int h,
                   std::uint8_t* out) {
  const bool inside = x >= 0 && x + w <= ref.width;
  for (int r = 0; r < h; ++r) {
    const std::uint8_t* row =
        ref.data.data() +
        static_cast<std::size_t>(std::clamp(y + r, 0, ref.height - 1)) *
            static_cast<std::size_t>(ref.width);
    std::uint8_t* dst = out + r * w;
    if (inside) {
      std::memcpy(dst, row + x, static_cast<std::size_t>(w));
    } else {
      for (int c = 0; c < w; ++c) {
        dst[c] = row[std::clamp(x + c, 0, ref.width - 1)];
      }
    }
  }
}

/// The 6-tap filter (1, -5, 20, 20, -5, 1) over six samples `step`
/// apart, unrounded and unshifted (scale 32).
template <typename T>
int six_tap(const T* p, int step) {
  return p[0] - 5 * p[step] + 20 * p[2 * step] + 20 * p[3 * step] -
         5 * p[4 * step] + p[5 * step];
}

}  // namespace

void motion_compensate(const Plane& ref, int x0, int y0, int size,
                       MotionVector mv, std::uint8_t* pred) {
  check_block_size(size, "motion_compensate");
  fetch_clamped(ref, x0 + mv.dx, y0 + mv.dy, size, size, pred);
}

void average_predictions(const std::uint8_t* a, const std::uint8_t* b,
                         std::uint8_t* out, int count) {
  for (int i = 0; i < count; ++i) {
    out[i] = static_cast<std::uint8_t>((static_cast<int>(a[i]) + b[i] + 1) / 2);
  }
}

void motion_compensate_halfpel(const Plane& ref, int x0, int y0, int size,
                               MotionVector mv_half, std::uint8_t* pred) {
  check_block_size(size, "motion_compensate_halfpel");
  // Every sample of the block shares the vector's fractional phase.  The
  // shift floors, so negative vectors resolve to the sample on the left.
  const int x = x0 + (mv_half.dx >> 1);
  const int y = y0 + (mv_half.dy >> 1);
  const bool fx = mv_half.dx & 1;
  const bool fy = mv_half.dy & 1;
  if (!fx && !fy) {
    fetch_clamped(ref, x, y, size, size, pred);
    return;
  }
  // The window starts two samples up and left of the block, so output
  // (r, c) filters window rows/columns r..r+5 and c..c+5.
  const int n = size + 5;
  std::uint8_t win[kWin * kWin];
  fetch_clamped(ref, x - 2, y - 2, n, n, win);
  if (!fy) {
    for (int r = 0; r < size; ++r) {
      const std::uint8_t* s = win + (r + 2) * n;
      for (int c = 0; c < size; ++c) {
        pred[r * size + c] = clamp_pixel((six_tap(s + c, 1) + 16) >> 5);
      }
    }
  } else if (!fx) {
    for (int r = 0; r < size; ++r) {
      const std::uint8_t* s = win + r * n + 2;
      for (int c = 0; c < size; ++c) {
        pred[r * size + c] = clamp_pixel((six_tap(s + c, n) + 16) >> 5);
      }
    }
  } else {
    // Diagonal (8.4.2.2.1): horizontal half-pel values for all n rows,
    // kept unrounded, then the vertical filter over them.
    int mid[kWin * kMbSize];
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < size; ++c) {
        mid[r * size + c] = six_tap(win + r * n + c, 1);
      }
    }
    for (int r = 0; r < size; ++r) {
      for (int c = 0; c < size; ++c) {
        pred[r * size + c] =
            clamp_pixel((six_tap(mid + r * size + c, size) + 512) >> 10);
      }
    }
  }
}

MotionVector motion_search_halfpel(const Plane& src, const Plane& ref,
                                   int x0, int y0, int size, int range,
                                   int* out_sad) {
  int best_sad = 0;
  const MotionVector full = motion_search(src, ref, x0, y0, size, range,
                                          &best_sad);
  MotionVector best{2 * full.dx, 2 * full.dy};
  std::uint8_t pred[kMbSize * kMbSize];
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx) {
      if (dx == 0 && dy == 0) continue;
      const MotionVector cand{2 * full.dx + dx, 2 * full.dy + dy};
      motion_compensate_halfpel(ref, x0, y0, size, cand, pred);
      // Same zero-bias units as the full-pel search (half-pel costs less).
      const int sad = sad_block(src, x0, y0, size, pred) +
                      (std::abs(cand.dx) + std::abs(cand.dy));
      if (sad < best_sad) {
        best_sad = sad;
        best = cand;
      }
    }
  }
  if (out_sad) *out_sad = best_sad;
  return best;
}

MotionVector motion_search(const Plane& src, const Plane& ref, int x0,
                           int y0, int size, int range, int* out_sad) {
  MotionVector best{};
  int best_sad = std::numeric_limits<int>::max();
  for (int dy = -range; dy <= range; ++dy) {
    for (int dx = -range; dx <= range; ++dx) {
      int sad = 0;
      for (int y = 0; y < size && sad < best_sad; ++y) {
        for (int x = 0; x < size; ++x) {
          sad += std::abs(
              static_cast<int>(src.at(x0 + x, y0 + y)) -
              static_cast<int>(ref.at_clamped(x0 + x + dx, y0 + y + dy)));
        }
      }
      // Slight zero-bias so static content prefers the null vector.
      sad += 2 * (std::abs(dx) + std::abs(dy));
      if (sad < best_sad) {
        best_sad = sad;
        best = {dx, dy};
      }
    }
  }
  if (out_sad) *out_sad = best_sad;
  return best;
}

}  // namespace affectsys::h264
