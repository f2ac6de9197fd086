// Affect-driven video playback simulation (Fig 6 bottom).
//
// A prototype clip is encoded once; each decoder mode is then profiled by
// actually decoding the (possibly Input-Selector-edited) stream and
// feeding the measured module activity through the calibrated power
// model.  A playback session integrates per-mode energy over an emotion
// timeline, switching modes through the AffectVideoPolicy exactly as the
// paper's case study does.
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "adaptive/modes.hpp"
#include "affect/scl.hpp"
#include "affect/stream.hpp"
#include "h264/encoder.hpp"
#include "h264/testvideo.hpp"
#include "power/model.hpp"

namespace affectsys::adaptive {

struct PlaybackConfig {
  /// Prototype clip content.  Defaults are calibrated (DESIGN.md) so the
  /// four mode powers land near the paper's Fig 6 measurements with
  /// S_th = 140: busy scenes produce B NALs just above the threshold,
  /// quiet scenes just below it.
  h264::VideoConfig video{64, 64, 48, 1.2, 0.6, 2.5, 77};
  h264::EncoderConfig encoder{64, 64, 24, 12, 2, 4};
  double fps = 25.0;                  ///< playback rate
  std::size_t s_th = 140;             ///< Input Selector threshold (bytes)
  unsigned f = 1;                     ///< Input Selector deletion frequency
  double deblock_power_share = 0.314; ///< calibration target (paper: 31.4%)
  /// Fraction of the prototype clip rendered as quiet/low-motion scenes
  /// (their small P/B NAL units are the Input Selector's candidates).
  double quiet_fraction = 0.25;
};

/// Measured characteristics of one decoder mode on the prototype clip.
struct ModeProfile {
  DecoderMode mode = DecoderMode::kStandard;
  power::EnergyBreakdown energy;  ///< one pass over the prototype clip
  double psnr_db = 0.0;           ///< vs the uncompressed source
  /// Energy relative to Standard; 0 until assigned by profile() (every
  /// mode, Standard included, gets an explicit value there).
  double norm_power = 0.0;
  SelectorStats selector;         ///< deletion statistics (if any)
};

/// Owns the prototype stream, the calibrated power model, and the four
/// mode profiles.
class AdaptiveDecoderSystem {
 public:
  explicit AdaptiveDecoderSystem(const PlaybackConfig& cfg);

  /// Profile for a mode (measured lazily, cached).
  const ModeProfile& profile(DecoderMode m);

  const power::EnergyCoefficients& coefficients() const { return coeff_; }
  const PlaybackConfig& config() const { return cfg_; }
  std::size_t clip_frames() const { return source_.size(); }

 private:
  ModeProfile measure(DecoderMode m) const;

  PlaybackConfig cfg_;
  std::vector<h264::YuvFrame> source_;
  std::vector<std::uint8_t> stream_;
  power::EnergyCoefficients coeff_;
  std::array<std::optional<ModeProfile>, kNumDecoderModes> profiles_;
};

struct PlaybackSegment {
  double start_s = 0.0;
  double end_s = 0.0;
  affect::Emotion emotion = affect::Emotion::kNeutral;
  DecoderMode mode = DecoderMode::kStandard;
  double energy_nj = 0.0;
  double psnr_db = 0.0;
};

struct PlaybackReport {
  std::vector<PlaybackSegment> segments;
  double total_energy_nj = 0.0;
  double standard_energy_nj = 0.0;  ///< whole session in Standard mode

  double energy_saving() const {
    return standard_energy_nj > 0.0
               ? 1.0 - total_energy_nj / standard_energy_nj
               : 0.0;
  }
};

/// Integrates mode energy over an emotion timeline.
PlaybackReport simulate_playback(AdaptiveDecoderSystem& system,
                                 const affect::EmotionTimeline& timeline,
                                 const AffectVideoPolicy& policy);

/// End-to-end variant: derives the emotion timeline from a skin-
/// conductance trace via the calibrated SclEmotionEstimator and an
/// EmotionStream (window votes + hysteresis), then simulates playback.
PlaybackReport simulate_playback_from_scl(
    AdaptiveDecoderSystem& system, const std::vector<double>& scl_trace,
    double scl_rate_hz, const affect::SclEmotionEstimator& estimator,
    const AffectVideoPolicy& policy, double window_s = 30.0);

}  // namespace affectsys::adaptive
