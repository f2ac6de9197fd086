#include "signal/window.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace affectsys::signal {

std::vector<double> hamming_window(std::size_t length) {
  if (length == 0) throw std::invalid_argument("hamming_window: zero length");
  std::vector<double> w(length);
  const double n = static_cast<double>(length);
  for (std::size_t i = 0; i < length; ++i) {
    w[i] = 0.54 - 0.46 * std::cos(2.0 * std::numbers::pi * i / n);
  }
  return w;
}

void apply_window(std::span<double> frame, std::span<const double> window) {
  if (frame.size() != window.size()) {
    throw std::invalid_argument("apply_window: size mismatch");
  }
  for (std::size_t i = 0; i < frame.size(); ++i) frame[i] *= window[i];
}

std::vector<std::vector<double>> frame_signal(std::span<const double> x,
                                              std::size_t frame_len,
                                              std::size_t hop) {
  if (frame_len == 0 || hop == 0) {
    throw std::invalid_argument("frame_signal: frame_len and hop must be > 0");
  }
  std::vector<std::vector<double>> frames;
  if (x.empty()) return frames;
  frames.reserve(frame_count(x.size(), frame_len, hop));
  for (std::size_t start = 0; start < x.size(); start += hop) {
    std::vector<double> f(frame_len, 0.0);
    const std::size_t take = std::min(frame_len, x.size() - start);
    for (std::size_t i = 0; i < take; ++i) f[i] = x[start + i];
    frames.push_back(std::move(f));
    if (start + frame_len >= x.size()) break;
  }
  return frames;
}

std::size_t frame_count(std::size_t size, std::size_t frame_len,
                        std::size_t hop) {
  if (frame_len == 0 || hop == 0) {
    throw std::invalid_argument("frame_count: frame_len and hop must be > 0");
  }
  if (size == 0) return 0;
  // frame_signal() emits one frame per hop start while start < size,
  // stopping early once a frame reaches the end of the signal.
  const std::size_t starts = (size - 1) / hop + 1;
  if (size <= frame_len) return 1;
  const std::size_t covering = (size - frame_len + hop - 1) / hop + 1;
  return std::min(starts, covering);
}

void copy_frame(std::span<const double> x, std::size_t t, std::size_t hop,
                std::span<double> buf) {
  const std::size_t start = t * hop;
  const std::size_t take =
      start < x.size() ? std::min(buf.size(), x.size() - start) : 0;
  for (std::size_t i = 0; i < take; ++i) buf[i] = x[start + i];
  for (std::size_t i = take; i < buf.size(); ++i) buf[i] = 0.0;
}

}  // namespace affectsys::signal
