#include "h264/frame.hpp"

#include <cstring>
#include <stdexcept>

namespace affectsys::h264 {

namespace {

constexpr std::uint64_t kDigestPrime = 1099511628211ull;  // FNV-1a's

/// One bijective step: a changed `word` always changes the result.  The
/// xorshift carries the product's top half down, so the same high bit
/// flipped in two consecutive words does not cancel as it does in plain
/// word-wise FNV-1a.
std::uint64_t digest_step(std::uint64_t lane, std::uint64_t word) {
  lane = (lane ^ word) * kDigestPrime;
  return lane ^ (lane >> 32);
}

std::uint64_t plane_digest(std::uint64_t h, const Plane& p) {
  const std::uint8_t* b = p.data.data();
  const std::size_t n = p.data.size();
  const std::size_t words_end = n - n % 32;
  std::uint64_t lane[4] = {h, h + 1, h + 2, h + 3};
  for (std::size_t i = 0; i < words_end; i += 32) {
    for (std::size_t k = 0; k < 4; ++k) {
      std::uint64_t w = 0;
      std::memcpy(&w, b + i + 8 * k, 8);
      lane[k] = digest_step(lane[k], w);
    }
  }
  for (const std::uint64_t l : lane) h = digest_step(h, l);
  for (std::size_t i = words_end; i < n; ++i) h = (h ^ b[i]) * kDigestPrime;
  return h;
}

}  // namespace

YuvFrame::YuvFrame(int width, int height)
    : y(width, height, kBlankLuma), cb(width / 2, height / 2, kBlankChroma),
      cr(width / 2, height / 2, kBlankChroma) {
  if (width <= 0 || height <= 0 || width % kMbSize || height % kMbSize) {
    throw std::invalid_argument(
        "YuvFrame: dimensions must be positive multiples of 16");
  }
}

void YuvFrame::blank() {
  std::fill(y.data.begin(), y.data.end(), kBlankLuma);
  std::fill(cb.data.begin(), cb.data.end(), kBlankChroma);
  std::fill(cr.data.begin(), cr.data.end(), kBlankChroma);
}

std::uint64_t frame_digest(std::uint64_t h, const YuvFrame& f) {
  h = plane_digest(h, f.y);
  h = plane_digest(h, f.cb);
  return plane_digest(h, f.cr);
}

}  // namespace affectsys::h264
