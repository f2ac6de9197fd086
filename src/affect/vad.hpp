// Energy-based voice activity detection with hangover smoothing.
//
// The wearable cannot afford to run the classifier on silence: VAD gates
// feature extraction so only voiced windows reach the neural engine
// (this is the front half of the real-time pipeline in
// affect/realtime.hpp).
#pragma once

#include <cstddef>
#include <span>

namespace affectsys::affect {

struct VadConfig {
  double sample_rate_hz = 16000.0;
  std::size_t frame_len = 400;  ///< 25 ms analysis frames
  std::size_t hop = 160;
  /// Speech threshold as a multiple of the tracked noise floor.
  double snr_threshold = 3.0;
  /// Frames the decision stays "speech" after energy drops (hangover).
  int hangover_frames = 8;
  /// Noise-floor adaptation rate (exponential, per frame).
  double floor_adapt = 0.02;
};

class VoiceActivityDetector {
 public:
  explicit VoiceActivityDetector(const VadConfig& cfg);

  /// Feeds one frame; returns the smoothed speech/non-speech decision.
  bool process_frame(std::span<const double> frame);

  /// Convenience: fraction of frames judged speech over a whole signal.
  /// Adaptation state carries over between calls (continuous operation);
  /// call reset() first for an independent measurement.
  double speech_fraction(std::span<const double> signal);

  double noise_floor() const { return noise_floor_; }
  void reset();

  const VadConfig& config() const { return cfg_; }

 private:
  VadConfig cfg_;
  double noise_floor_ = 1e-4;
  int hangover_ = 0;
};

}  // namespace affectsys::affect
