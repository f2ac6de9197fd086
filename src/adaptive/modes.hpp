// Decoder working modes (Fig 6 middle) and the emotion -> mode policy.
#pragma once

#include <array>
#include <string_view>

#include "adaptive/input_selector.hpp"
#include "affect/emotion.hpp"

namespace affectsys::adaptive {

/// The four working modes the affect-driven decoder provides.
enum class DecoderMode {
  kStandard,    ///< all NAL units processed, DF active: best quality
  kDeletion,    ///< Input Selector drops small P/B NALs (S_th, f)
  kDeblockOff,  ///< Deblocking Filter deactivated
  kCombined,    ///< deletion + DF off: maximum power saving
};

inline constexpr std::size_t kNumDecoderModes = 4;

std::string_view mode_name(DecoderMode m);

/// Knob settings realizing a mode.
struct ModeConfig {
  bool deblock = true;
  bool delete_nals = false;
  SelectorParams selector{};  ///< used when delete_nals
};

/// The paper's mode parameterization: S_th = 140 bytes, f = 1.
ModeConfig mode_config(DecoderMode m, std::size_t s_th = 140, unsigned f = 1);

/// Overload degradation ladder for the session server: forces a mode at
/// least as cheap as the affect policy chose.  Level 0 returns `m`
/// unchanged; level 1 turns NAL deletion on (Standard -> Deletion,
/// DeblockOff -> Combined); level >= 2 forces Combined (deletion + DF
/// off).  Frame dropping — the step *after* every affect-adaptive knob
/// is exhausted — is the server's decision, not a decoder mode.
DecoderMode degraded_mode(DecoderMode m, int level);

/// Programmable mapping from detected emotion to decoder mode.  The
/// default implements the Section 4 case-study policy:
///   distracted           -> Combined (max saving; quality not critical)
///   concentrated         -> Deletion (DF back on)
///   tense / highly conc. -> Standard (best quality)
///   relaxed              -> DeblockOff
/// plus sensible defaults for the basic emotions (attention-critical
/// emotions get Standard, low-arousal ones DeblockOff).
/// Continuous-policy variant over the circumplex: decoder mode as a
/// function of graded arousal (attention).  High arousal buys
/// quality; deep deactivation buys power.  Thresholds are the natural
/// quartiles of the arousal axis.
DecoderMode mode_for_circumplex(const affect::CircumplexPoint& p);

class AffectVideoPolicy {
 public:
  AffectVideoPolicy();

  DecoderMode mode_for(affect::Emotion e) const;
  void set_mode(affect::Emotion e, DecoderMode m);

 private:
  std::array<DecoderMode, affect::kNumEmotions> map_;
};

}  // namespace affectsys::adaptive
