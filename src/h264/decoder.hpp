// H.264 decoder mirroring the Fig 5 pipeline: bitstream parser ->
// CAVLC/variable-length decoding -> IQIT -> intra/inter prediction ->
// deblocking filter, with per-module activity counters feeding the power
// model and a runtime-deactivatable Deblocking Filter (the paper's second
// power knob).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "h264/bitstream.hpp"
#include "h264/deblock.hpp"
#include "h264/frame.hpp"
#include "h264/nal.hpp"

namespace affectsys::h264 {

/// Typed decode failure: a malformed (possibly fault-injected) NAL unit
/// the decoder refused to act on.  Derives from BitstreamError so every
/// existing parse-error handler keeps working; carries the offending
/// NAL type for triage.
class DecodeError : public BitstreamError {
 public:
  DecodeError(const std::string& what, NalType type)
      : BitstreamError(what), type_(type) {}

  NalType nal_type() const { return type_; }

 private:
  NalType type_;
};

/// Per-module activity counters incremented while decoding.  The power
/// model (src/power) converts these into module energies.
struct DecodeActivity {
  // Bitstream parser / circular-buffer path.
  std::uint64_t nal_units = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bits_parsed = 0;
  // CAVLC / variable-length decoder.
  std::uint64_t residual_blocks = 0;
  std::uint64_t coefficients = 0;
  // IQIT.
  std::uint64_t iqit_blocks = 0;
  // Prediction.
  std::uint64_t intra_mbs = 0;
  std::uint64_t inter_mbs = 0;
  std::uint64_t skip_mbs = 0;
  // Deblocking filter.
  std::uint64_t deblock_edges_examined = 0;
  std::uint64_t deblock_edges_filtered = 0;
  std::uint64_t deblock_pixels = 0;
  // Frame-level.
  std::uint64_t frames_decoded = 0;
  std::uint64_t frames_concealed = 0;
  // Error recovery (resilient mode; see DecoderConfig::resilient).
  std::uint64_t nal_errors = 0;    ///< malformed NALs swallowed or thrown
  std::uint64_t resync_skips = 0;  ///< non-IDR slices skipped awaiting resync
  std::uint64_t resyncs = 0;       ///< recoveries completed at an IDR
  std::uint64_t loss_signals = 0;  ///< upstream losses reported via notify_loss

  DecodeActivity& operator+=(const DecodeActivity& o);
};

struct DecodedPicture {
  YuvFrame frame;
  int poc = 0;
  SliceType type = SliceType::kI;
  bool concealed = false;  ///< frame-copy substituted for a missing picture
};

struct DecoderConfig {
  /// Affect-driven DF knob: when false the Deblocking Filter module is
  /// powered down regardless of the PPS flag.
  bool enable_deblock = true;
  /// Error resilience: when true a malformed NAL is counted and
  /// swallowed (the picture is lost) instead of raising DecodeError, and
  /// the decoder drops its references and skips non-IDR slices until the
  /// next keyframe decodes — resync-to-next-keyframe recovery.  On a
  /// well-formed stream the resilient decoder is byte-identical to the
  /// strict one (the error path never runs).
  bool resilient = false;
};

class Decoder {
 public:
  explicit Decoder(const DecoderConfig& cfg = {}) : cfg_(cfg) {}

  /// Feeds one NAL unit (parameter set or slice).  Returns the decoded
  /// picture for slice units, nullopt otherwise.  Malformed units raise
  /// DecodeError — or, with DecoderConfig::resilient, are counted in
  /// activity().nal_errors and swallowed (nullopt) while the decoder
  /// resyncs at the next keyframe.
  std::optional<DecodedPicture> decode_nal(const NalUnit& nal);

  /// Decodes an entire Annex-B stream (decode order).
  std::vector<DecodedPicture> decode_annexb(
      std::span<const std::uint8_t> stream);

  const DecodeActivity& activity() const { return activity_; }
  void reset_activity() { activity_ = {}; }

  bool deblock_enabled() const { return cfg_.enable_deblock && pps_deblock_; }
  void set_deblock_enabled(bool on) { cfg_.enable_deblock = on; }

  int width() const { return width_; }
  int height() const { return height_; }

  /// True while a resilient decoder is discarding non-IDR slices after
  /// an error, waiting for the next keyframe.
  bool awaiting_keyframe() const { return awaiting_keyframe_; }

  /// Re-initializes decode state (parameter sets, references, resync
  /// state, activity counters) exactly as constructing a fresh
  /// Decoder(cfg) would, but keeps the scratch buffers' and recycled
  /// frames' capacity — the allocation-free equivalent of the old
  /// `decoder = Decoder(cfg)` stream restart.
  void reset(const DecoderConfig& cfg);

  /// Returns a retired frame to the decoder's spare list.  decode_slice
  /// reuses spare frames of the current geometry for reconstruction
  /// instead of allocating a new YuvFrame per picture.  A reused frame is
  /// first refilled with a fresh frame's blank values (YuvFrame::blank),
  /// so a recycling decoder outputs the same pictures as one that is
  /// never handed frames back.
  void recycle(YuvFrame&& frame);

  /// Upstream loss report: a transport depacketizer (or any feeder) has
  /// detected that a unit it cannot even present was lost — a dropped
  /// packet, an unreassemblable fragment set.  A resilient decoder
  /// reacts exactly as it does to a malformed slice: references are
  /// dropped and non-IDR slices are skipped until the next keyframe, so
  /// every picture decoded after the resync is bit-exact against a
  /// clean decode.  A strict decoder only counts the signal (the caller
  /// opted out of recovery).
  void notify_loss();

 private:
  std::optional<DecodedPicture> decode_nal_checked(const NalUnit& nal);
  DecodedPicture decode_slice(const NalUnit& nal);
  /// Blank frame at the current geometry (the same bytes as a new
  /// YuvFrame), reusing a recycled frame's storage when one fits.
  YuvFrame take_frame();

  DecoderConfig cfg_;
  DecodeActivity activity_;
  int width_ = 0;
  int height_ = 0;
  int qp_ = 26;
  bool pps_deblock_ = true;
  bool have_sps_ = false;
  bool awaiting_keyframe_ = false;

  YuvFrame ref_a_;  ///< older reference (forward for B pictures)
  YuvFrame ref_b_;  ///< newer reference
  int refs_held_ = 0;

  // Steady-state scratch (capacity survives reset()): RBSP de-escape
  // staging, per-slice macroblock info, and recycled reconstruction
  // frames.
  std::vector<std::uint8_t> rbsp_;
  std::vector<MbInfo> mb_info_;
  std::vector<YuvFrame> spare_frames_;
};

/// Reorders decode-order pictures into display order over pocs
/// [0, expected_pictures) and fills gaps left by deleted NAL units with a
/// copy of the nearest earlier displayed frame (frame-copy concealment).
std::vector<DecodedPicture> assemble_display_sequence(
    std::vector<DecodedPicture> decoded, int expected_pictures);

}  // namespace affectsys::h264
