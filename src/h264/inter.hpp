// Inter prediction: full-pel motion estimation and compensation for P and
// B macroblocks.
#pragma once

#include <cstdint>

#include "h264/frame.hpp"

namespace affectsys::h264 {

struct MotionVector {
  int dx = 0;
  int dy = 0;

  bool operator==(const MotionVector&) const = default;
};

/// Copies the motion-compensated `size`x`size` block at (x0+mv, y0+mv)
/// from `ref` into `pred` with edge clamping.  `size` must lie in
/// [1, kMbSize] (std::invalid_argument otherwise).
void motion_compensate(const Plane& ref, int x0, int y0, int size,
                       MotionVector mv, std::uint8_t* pred);

/// Averages two predictions (B-frame bi-prediction), rounding to nearest.
void average_predictions(const std::uint8_t* a, const std::uint8_t* b,
                         std::uint8_t* out, int count);

/// Full-search motion estimation over [-range, +range]^2 minimizing SAD.
/// Returns the best vector and writes the SAD through `out_sad` if given.
MotionVector motion_search(const Plane& src, const Plane& ref, int x0,
                           int y0, int size, int range,
                           int* out_sad = nullptr);

// ---- half-pel path ---------------------------------------------------
//
// Vectors below are in HALF-PEL units (mv.dx == 3 means +1.5 luma
// samples).  Half-sample positions are interpolated with the spec's
// 6-tap filter (1, -5, 20, 20, -5, 1)/32; the diagonal position applies
// the filter horizontally then vertically, as in 8.4.2.2.1.  Samples
// outside the plane read the nearest edge sample.

/// Motion compensation with a half-pel vector: `pred` receives the
/// `size`x`size` block whose top-left sample sits at half-pel position
/// (2*x0 + mv_half.dx, 2*y0 + mv_half.dy).  `size` must lie in
/// [1, kMbSize] (std::invalid_argument otherwise).
void motion_compensate_halfpel(const Plane& ref, int x0, int y0, int size,
                               MotionVector mv_half, std::uint8_t* pred);

/// Full-pel full search followed by half-pel refinement over the 8
/// surrounding half-sample positions.  Returns a HALF-PEL vector.
MotionVector motion_search_halfpel(const Plane& src, const Plane& ref,
                                   int x0, int y0, int size, int range,
                                   int* out_sad = nullptr);

}  // namespace affectsys::h264
