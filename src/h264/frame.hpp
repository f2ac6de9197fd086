// Planar YUV 4:2:0 frame buffer and pixel helpers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace affectsys::h264 {

inline constexpr int kMbSize = 16;  ///< luma macroblock dimension

/// Sample values a newly constructed frame holds: black luma, neutral
/// chroma.  Recycled reconstruction frames are reset to the same fill.
inline constexpr std::uint8_t kBlankLuma = 16;
inline constexpr std::uint8_t kBlankChroma = 128;

/// One 8-bit plane with clamped sampling for prediction at frame edges.
struct Plane {
  int width = 0;
  int height = 0;
  std::vector<std::uint8_t> data;

  Plane() = default;
  Plane(int w, int h, std::uint8_t fill = 0)
      : width(w), height(h),
        data(static_cast<std::size_t>(w) * static_cast<std::size_t>(h), fill) {}

  std::uint8_t& at(int x, int y) {
    return data[static_cast<std::size_t>(y) * width + x];
  }
  std::uint8_t at(int x, int y) const {
    return data[static_cast<std::size_t>(y) * width + x];
  }
  /// Sample with coordinates clamped into the plane (for MC at borders).
  std::uint8_t at_clamped(int x, int y) const {
    return at(std::clamp(x, 0, width - 1), std::clamp(y, 0, height - 1));
  }
};

/// 4:2:0 frame; luma dimensions must be multiples of 16.
struct YuvFrame {
  Plane y;
  Plane cb;
  Plane cr;

  YuvFrame() = default;
  YuvFrame(int width, int height);

  /// Refills every plane with the blank values the constructor uses.
  void blank();

  int width() const { return y.width; }
  int height() const { return y.height; }
  int mb_cols() const { return y.width / kMbSize; }
  int mb_rows() const { return y.height / kMbSize; }
  int mb_count() const { return mb_cols() * mb_rows(); }
  bool same_size(const YuvFrame& o) const {
    return width() == o.width() && height() == o.height();
  }
};

inline std::uint8_t clamp_pixel(int v) {
  return static_cast<std::uint8_t>(std::clamp(v, 0, 255));
}

/// Chains every pixel of `f` (y, cb, cr in that order) into `h`, so two
/// chains match only when every byte matched in sequence.  Each plane
/// feeds four interleaved 64-bit lanes, one bijective step per 8-byte
/// word, folds them into `h` at its end, then takes its last size % 32
/// bytes one at a time: a change confined to one word or one tail byte
/// always changes the result.
std::uint64_t frame_digest(std::uint64_t h, const YuvFrame& f);

}  // namespace affectsys::h264
