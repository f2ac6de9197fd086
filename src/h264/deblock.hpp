// In-loop deblocking filter with boundary-strength derivation (the "DF"
// block of Fig 5 — the module the affect-driven controller can deactivate
// for a ~31% decoder power saving).
//
// Boundary strength follows 8.7.2: 4 at intra macroblock edges, 3 at
// internal intra edges, 2 when either side has coded residual, 1 when
// motion differs, 0 otherwise (skip filtering).  Edge filtering uses the
// spec's strong filter at bs==4 and the clipped normal filter otherwise;
// alpha/beta thresholds are the spec tables indexed by QP.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "h264/frame.hpp"
#include "h264/inter.hpp"

namespace affectsys::h264 {

/// Per-macroblock reconstruction metadata the filter needs.
struct MbInfo {
  bool intra = false;
  bool skipped = false;
  MotionVector mv{};  ///< in half-pel units
  /// One flag per 4x4 luma block (raster within the MB): coded residual.
  std::array<bool, 16> nonzero{};
};

/// Boundary strength between two 4x4 luma blocks sharing an edge.
/// `mb_edge` marks macroblock-boundary edges.
int boundary_strength(const MbInfo& p, int p_blk, const MbInfo& q, int q_blk,
                      bool mb_edge);

struct DeblockStats {
  std::uint64_t edges_examined = 0;
  std::uint64_t edges_filtered = 0;
  std::uint64_t pixels_modified = 0;

  DeblockStats& operator+=(const DeblockStats& o) {
    edges_examined += o.edges_examined;
    edges_filtered += o.edges_filtered;
    pixels_modified += o.pixels_modified;
    return *this;
  }
};

/// Filters a reconstructed frame in place.  `mb_info` is raster-ordered
/// (mb_rows x mb_cols).  Returns activity statistics for the power model.
/// The per-line oracle it must match byte for byte, stats included,
/// lives in tests/h264_deblock_oracle.hpp.
DeblockStats deblock_frame(YuvFrame& frame, const std::vector<MbInfo>& mb_info,
                           int qp);

/// Spec alpha/beta thresholds (Table 8-16), exposed for tests.
int deblock_alpha(int qp);
int deblock_beta(int qp);

}  // namespace affectsys::h264
