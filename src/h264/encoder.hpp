// Baseline-style H.264 encoder producing Annex-B bitstreams the adaptive
// decoder consumes.
//
// Simplified profile (documented in DESIGN.md): intra 16x16 (DC/V/H) and
// directional intra 4x4 partitions, 16x16 inter partitions with half-pel
// motion compensation (6-tap interpolation), one reference per direction,
// 4x4 integer transform, CAVLC-style entropy coding, optional leaky-
// bucket rate control, IPPP or IBBP GOP structures.  The emitted stream
// uses genuine NAL syntax: Annex-B start codes, nal_ref_idc/type header
// byte, emulation prevention, SPS/PPS, Exp-Golomb slice headers — so the
// Input Selector's NAL-level editing is exercised exactly as in the
// paper.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "h264/frame.hpp"
#include "h264/nal.hpp"
#include "h264/ratecontrol.hpp"

namespace affectsys::h264 {

struct EncoderConfig {
  int width = 64;
  int height = 64;
  int qp = 28;              ///< 0..51
  int gop_size = 12;        ///< I-frame period (in display order)
  int b_frames = 2;         ///< consecutive B pictures between references
  int search_range = 4;     ///< full-pel ME range
  /// Refine motion vectors to half-sample accuracy (6-tap interpolation).
  /// Vectors are coded in half-pel units either way.
  bool halfpel_mc = true;
  /// Allow intra-4x4 partitions where they beat 16x16 prediction.
  bool intra4x4 = true;
};

/// One encoded access unit.
struct EncodedPicture {
  NalUnit nal;
  SliceType type = SliceType::kI;
  int poc = 0;  ///< display (output) order index
};

class Encoder {
 public:
  explicit Encoder(const EncoderConfig& cfg);

  /// Encodes a whole sequence (display order in, decode order out).
  std::vector<EncodedPicture> encode(const std::vector<YuvFrame>& frames);

  /// Encodes with per-picture QP chosen by the rate controller; the
  /// controller is updated with every coded picture size.  Per-picture QP
  /// deltas are carried in the slice headers, so the output is decodable
  /// by the unmodified Decoder.
  std::vector<EncodedPicture> encode_rate_controlled(
      const std::vector<YuvFrame>& frames, RateController& rc);

  /// Convenience: full Annex-B stream with SPS/PPS prepended.
  std::vector<std::uint8_t> encode_annexb(const std::vector<YuvFrame>& frames);

  /// SPS/PPS parameter-set NAL units for the current config.
  std::vector<NalUnit> parameter_sets() const;

  const EncoderConfig& config() const { return cfg_; }

 private:
  EncodedPicture encode_picture(const YuvFrame& src, SliceType type, int poc,
                                const YuvFrame* fwd_ref,
                                const YuvFrame* bwd_ref,
                                YuvFrame* recon_out);

  EncoderConfig cfg_;
  int frame_num_ = 0;
  /// When set, supplies the QP for each picture (rate control).
  std::function<int(SliceType)> qp_hook_;
  /// When set, observes every coded picture (rate-control feedback).
  std::function<void(const EncodedPicture&)> coded_hook_;
};

}  // namespace affectsys::h264
