// Integer-only synthetic clip and FNV-1a digests, shared by the codec
// golden-digest test (tests/test_kernels.cpp) and bench_kernels' decode
// block.
//
// generate_*_video use std::sin and normal_distribution, whose rounding
// can depend on codegen; this clip uses integer arithmetic only, so its
// frames, the stream encoded from them and the pictures decoded from
// that stream are the same bytes under every compiler, flag set and
// sanitizer.  The content is chosen to reach every decode path: a static
// band (skip macroblocks), three texture bands panning by one half
// sample per frame horizontally, vertically and diagonally (all four
// half-pel phases, vectors reaching every border), a block of fresh
// noise moving across the frame (intra macroblocks in P and B pictures),
// directional texture (intra 4x4) and a tile that alternates between
// noise and diagonal stripes (intra 4x4 in P and B pictures).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "h264/decoder.hpp"
#include "h264/encoder.hpp"
#include "h264/frame.hpp"

namespace affectsys::h264::golden {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

inline std::uint64_t fnv1a(std::uint64_t h,
                           std::span<const std::uint8_t> bytes) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// FNV-1a over every plane of every picture, in the order given.
inline std::uint64_t pictures_digest(
    const std::vector<DecodedPicture>& pictures) {
  std::uint64_t h = kFnvOffset;
  for (const DecodedPicture& p : pictures) {
    h = fnv1a(h, p.frame.y.data);
    h = fnv1a(h, p.frame.cb.data);
    h = fnv1a(h, p.frame.cr.data);
  }
  return h;
}

/// Directional texture on the integer lattice: a diagonal ramp plus an
/// XOR pattern.
inline int lattice(int i, int j) {
  return (i * 5 + j * 3 + ((i ^ j) & 15) * 7) & 255;
}

/// The texture at half-sample position (hx, hy): the rounded mean of the
/// lattice samples around it.
inline int texture_halfpel(int hx, int hy) {
  const int i = hx >> 1, j = hy >> 1;
  const int i2 = (hx + 1) >> 1, j2 = (hy + 1) >> 1;
  return (lattice(i, j) + lattice(i2, j) + lattice(i, j2) + lattice(i2, j2) +
          2) >> 2;
}

inline std::uint32_t hash3(int x, int y, int t) {
  std::uint32_t h = static_cast<std::uint32_t>(x) * 73856093u ^
                    static_cast<std::uint32_t>(y) * 19349663u ^
                    static_cast<std::uint32_t>(t) * 83492791u;
  h ^= h >> 13;
  h *= 0x5bd1e995u;
  h ^= h >> 15;
  return h;
}

/// Frame `t` of the clip; width and height are multiples of 16.
inline YuvFrame clip_frame(int width, int height, int t) {
  YuvFrame f(width, height);
  const int noise_x = (t * 12) % width;  // fresh noise block, 16x16
  const int noise_y = height / 3;
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      int v;
      if (x < width / 4) {
        v = 96;  // static band
      } else {
        const int band = y * 3 / height;  // diagonal, horizontal, vertical
        const int vx = band == 2 ? 0 : 1;
        const int vy = band == 1 ? 0 : 1;
        v = texture_halfpel(2 * x - vx * t, 2 * y - vy * t);
      }
      if (x >= noise_x && x < noise_x + 16 && y >= noise_y &&
          y < noise_y + 16) {
        v = static_cast<int>(hash3(x, y, t) & 255u);
      } else if (x >= width - 48 && x < width - 16 && y >= 16 && y < 48) {
        // Noise on even frames, diagonal stripes on odd ones.
        const int d = t % 4 == 1 ? x + y : x - y + 64;
        v = t % 2 ? ((d / 3) % 2 ? 140 : 100)
                  : static_cast<int>(hash3(x, y, t + 1000) & 255u);
      }
      f.y.at(x, y) = static_cast<std::uint8_t>(v);
    }
  }
  for (int y = 0; y < height / 2; ++y) {
    for (int x = 0; x < width / 2; ++x) {
      if (x < width / 8) {  // static band
        f.cb.at(x, y) = 110;
        f.cr.at(x, y) = 140;
        continue;
      }
      f.cb.at(x, y) = static_cast<std::uint8_t>(96 + ((x + t) & 63));
      f.cr.at(x, y) = static_cast<std::uint8_t>(
          112 + ((lattice(x, y + t) >> 3) & 31));
    }
  }
  return f;
}

inline std::vector<YuvFrame> clip(int width, int height, int frames) {
  std::vector<YuvFrame> out;
  out.reserve(static_cast<std::size_t>(frames));
  for (int t = 0; t < frames; ++t) out.push_back(clip_frame(width, height, t));
  return out;
}

/// One pinned case: the clip geometry and GOP, and the FNV-1a digests
/// of its Annex-B stream (otherwise the default EncoderConfig: IBBP,
/// QP 28, half-pel, intra 4x4, in-loop deblocking) and of every picture
/// decode_annexb returns with the deblocking filter on and off.  Both
/// cases hold a second IDR picture.
struct Case {
  int width;
  int height;
  int frames;
  int gop_size;
  std::uint64_t stream;
  std::uint64_t deblock_on;
  std::uint64_t deblock_off;
};

inline constexpr Case k64x64{64, 64, 13, 12, 0xb095cbed3deaa981ull,
                             0xad3adc1e037968baull, 0xec1ab572548573e9ull};
inline constexpr Case kCif{352, 288, 7, 6, 0xaf86b0751c9b8b90ull,
                           0x326b2f55d4971f04ull, 0x84b24b5eff128589ull};

inline EncoderConfig encoder_config(const Case& c) {
  EncoderConfig cfg;
  cfg.width = c.width;
  cfg.height = c.height;
  cfg.gop_size = c.gop_size;
  return cfg;
}

}  // namespace affectsys::h264::golden
