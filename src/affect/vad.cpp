#include "affect/vad.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "signal/features.hpp"
#include "signal/window.hpp"

namespace affectsys::affect {

VoiceActivityDetector::VoiceActivityDetector(const VadConfig& cfg)
    : cfg_(cfg) {
  if (cfg.frame_len == 0 || cfg.hop == 0) {
    throw std::invalid_argument("VAD: frame geometry must be positive");
  }
}

void VoiceActivityDetector::reset() {
  noise_floor_ = 1e-4;
  hangover_ = 0;
}

bool VoiceActivityDetector::process_frame(std::span<const double> frame) {
  const double energy = signal::rms(frame);
  const bool raw_speech = energy > cfg_.snr_threshold * noise_floor_;
  if (raw_speech) {
    hangover_ = cfg_.hangover_frames;
    // Slow upward creep so a stationary "loud" noise cannot masquerade as
    // speech forever (escapes the floor-never-adapts deadlock).
    noise_floor_ = std::min(noise_floor_ * (1.0 + cfg_.floor_adapt), energy);
    return true;
  }
  // Fast adaptation toward quieter levels on non-speech frames.
  noise_floor_ = (1.0 - cfg_.floor_adapt) * noise_floor_ +
                 cfg_.floor_adapt * std::max(energy, 1e-6);
  if (hangover_ > 0) {
    --hangover_;
    return true;
  }
  return false;
}

double VoiceActivityDetector::speech_fraction(
    std::span<const double> signal) {
  // Deliberately does NOT reset(): the noise floor keeps adapting across
  // calls, which is what a continuously-running wearable detector does.
  // Frames are staged through this thread's scratch instead of
  // materializing the whole frame list (or holding a copy per detector);
  // the zero-padded copy matches frame_signal's output, so the decisions
  // are identical.
  const std::size_t total =
      signal::frame_count(signal.size(), cfg_.frame_len, cfg_.hop);
  thread_local std::vector<double> frame;
  frame.resize(cfg_.frame_len);
  std::size_t speech = 0;
  for (std::size_t t = 0; t < total; ++t) {
    signal::copy_frame(signal, t, cfg_.hop, frame);
    speech += process_frame(frame);
  }
  return total ? static_cast<double>(speech) / static_cast<double>(total)
               : 0.0;
}

}  // namespace affectsys::affect
