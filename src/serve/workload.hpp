// Deterministic multi-tenant load: the read-only media assets every
// session shares, and the per-session seeded script that drives one
// user's traffic over them.
//
// The server's scaling story depends on sessions sharing immutable
// state: one synthesized utterance bank (a few hundred KB) and one
// encoded prototype clip stand in for the per-user audio capture and
// video stream, so 64 concurrent sessions cost 64 cursors — not 64
// copies of the media.  Each session derives its entire behaviour
// (emotion script, silence gaps, app-launch trace) from a single seed,
// which is what makes server runs replayable: same seed, same traffic,
// same sheds, byte for byte.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "affect/emotion.hpp"
#include "h264/encoder.hpp"
#include "h264/nal.hpp"
#include "h264/testvideo.hpp"
#include "simulcast/encoder.hpp"

namespace affectsys::serve {

struct WorkloadConfig {
  double sample_rate_hz = 16000.0;
  /// Length of each banked utterance.
  double utterance_s = 1.2;
  /// Emotions with a banked utterance; session scripts draw from these.
  /// Defaults to the uulmMAC-style pair the small test classifiers are
  /// trained on.
  std::vector<affect::Emotion> emotions = {affect::Emotion::kAngry,
                                           affect::Emotion::kCalm};
  unsigned synth_seed = 7;
  /// Prototype clip (matches adaptive::PlaybackConfig calibration: busy
  /// scenes produce B NALs just above S_th = 140, quiet scenes below).
  h264::VideoConfig video{64, 64, 48, 1.2, 0.6, 2.5, 77};
  h264::EncoderConfig encoder{64, 64, 24, 12, 2, 4};
  double quiet_fraction = 0.25;
  /// Simulcast ladder built alongside the single-layer prototype clip.
  /// Layers empty (the default) skips the build entirely; sessions with
  /// SimulcastSessionConfig::enabled require a workload that set this
  /// (e.g. simulcast::default_simulcast_config()).
  simulcast::SimulcastConfig simulcast{};
};

/// One segment of a session's emotion script: `speech_s` seconds of the
/// banked utterance for `emotion`, then `silence_s` seconds of silence.
struct ScriptSegment {
  affect::Emotion emotion = affect::Emotion::kNeutral;
  double speech_s = 2.0;
  double silence_s = 0.5;
  /// Integer sample counts: make_script() leaves them zero and the
  /// session fills them as `static_cast<std::size_t>(seconds * rate)`
  /// at its own sample rate.
  std::size_t speech_samples = 0;
  std::size_t silence_samples = 0;
};

/// Immutable assets shared by every session of one server: the
/// per-emotion utterance bank and the encoded prototype clip, unpacked
/// to NAL units once.  Thread-safe by construction (read-only after the
/// constructor).
class SharedWorkload {
 public:
  explicit SharedWorkload(const WorkloadConfig& cfg);

  const WorkloadConfig& config() const { return cfg_; }
  /// Banked utterance samples for an emotion in config().emotions.
  std::span<const double> utterance(affect::Emotion e) const;
  /// The prototype clip as encoded: SPS, PPS, then one slice per picture.
  const std::vector<h264::NalUnit>& nal_units() const { return nals_; }
  /// The same clip as a 1-layer simulcast clip (params = SPS and PPS):
  /// what single-stream sessions walk.
  const simulcast::SimulcastClip& clip() const { return *clip_; }
  /// Aligned multi-layer clip; null unless config().simulcast.layers was
  /// populated.
  const simulcast::SimulcastClip* simulcast_clip() const {
    return sim_clip_.get();
  }

  /// Deterministic per-session emotion script: `segments` entries drawn
  /// from config().emotions with seeded speech/silence jitter.
  std::vector<ScriptSegment> make_script(unsigned seed,
                                         std::size_t segments) const;

 private:
  WorkloadConfig cfg_;
  std::vector<std::vector<double>> bank_;  ///< parallel to cfg_.emotions
  std::vector<h264::NalUnit> nals_;
  std::unique_ptr<simulcast::SimulcastClip> clip_;
  std::unique_ptr<simulcast::SimulcastClip> sim_clip_;
};

}  // namespace affectsys::serve
