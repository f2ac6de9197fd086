// Feature-bank cache: precomputed per-frame feature rows for the shared
// utterance bank.
//
// Profiling the serve tick shows ~70% of active-session CPU in per-frame
// feature extraction (MFCC FFTs dominating) — yet every session plays
// the *same* banked utterances, so the audio under a frame is a pure
// function of (emotion, phase within the utterance) whenever the frame
// lies entirely inside one script segment's speech (or silence) span.
// With quantized scripts (WorkloadConfig::script_quantum_samples a
// multiple of the feature hop) every segment boundary falls on a frame
// boundary, so a session can classify each of its window's frames by
// script position and memcpy the precomputed raw feature row instead of
// recomputing it; only frames straddling a speech/silence or segment
// boundary (a few per window) are computed live.  Rows are cached
// *before* standardization — the per-window z-score still runs on the
// assembled matrix — and every cached row was produced by the same
// FeatureExtractor::compute_frame_row the live path calls, so cached
// and recomputed windows are byte-identical by construction.
//
// The cache is immutable after construction and therefore shared
// read-only across all sessions.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "affect/emotion.hpp"
#include "affect/features.hpp"
#include "serve/workload.hpp"

namespace affectsys::serve {

class FeatureBankCache {
 public:
  /// Builds rows for every banked emotion.  When the workload's script
  /// quantum or utterance lengths do not align to the feature hop the
  /// cache marks itself unusable (and builds nothing) instead of
  /// throwing — callers fall back to live extraction.
  /// `truncate_bits` applies nn::truncate_mantissa to every cached row
  /// (speech and silence) — the approximate-storage knob from the
  /// inference ladder; 0 (the default) stores the exact rows, byte for
  /// byte.
  FeatureBankCache(const SharedWorkload& workload,
                   const affect::FeatureConfig& fc,
                   unsigned truncate_bits = 0);

  /// Mantissa bits cleared from every cached row (0 = exact).
  unsigned truncate_bits() const { return truncate_bits_; }

  /// False when script quantization is off or any geometry is
  /// hop-misaligned; no row accessors may be called.
  bool usable() const { return usable_; }

  const affect::FeatureConfig& feature_config() const { return fc_; }
  std::size_t hop() const { return fc_.mfcc.hop; }
  std::size_t frame_len() const { return fc_.mfcc.frame_len; }
  std::size_t feature_dim() const { return dim_; }

  bool covers(affect::Emotion e) const {
    return offset_[static_cast<std::size_t>(e)] != kNone;
  }
  /// Banked utterance length in samples (covered emotions only).
  std::size_t utterance_len(affect::Emotion e) const {
    return utt_len_[static_cast<std::size_t>(e)];
  }

  /// Raw (pre-standardization) feature row for an interior-speech frame
  /// of `e` starting `phase` samples into the utterance (phase must be
  /// a hop multiple below utterance_len; frames wrapping past the
  /// utterance end are covered — the bank loops modulo its length).
  std::span<const float> speech_row(affect::Emotion e,
                                    std::size_t phase) const {
    const std::size_t base = offset_[static_cast<std::size_t>(e)];
    return {rows_.data() + base + (phase / fc_.mfcc.hop) * dim_, dim_};
  }

  /// Raw feature row of an all-zero (silence) frame.
  std::span<const float> silence_row() const { return silence_; }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  affect::FeatureConfig fc_;
  bool usable_ = false;
  unsigned truncate_bits_ = 0;
  std::size_t dim_ = 0;
  std::array<std::size_t, affect::kNumEmotions> offset_{};   ///< into rows_
  std::array<std::size_t, affect::kNumEmotions> utt_len_{};  ///< samples
  std::vector<float> rows_;  ///< [emotion][phase][feature], flattened
  std::vector<float> silence_;
};

}  // namespace affectsys::serve
