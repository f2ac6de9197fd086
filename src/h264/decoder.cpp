#include "h264/decoder.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "h264/bitstream.hpp"
#include "h264/deblock.hpp"
#include "h264/entropy.hpp"
#include "h264/inter.hpp"
#include "h264/intra.hpp"
#include "h264/intra4.hpp"
#include "h264/transform.hpp"
#include "obs/metrics.hpp"

namespace affectsys::h264 {
namespace {

constexpr std::uint32_t kMbSkip = 0;
constexpr std::uint32_t kMbInterFwd = 1;
constexpr std::uint32_t kMbInterBwd = 2;
constexpr std::uint32_t kMbInterBi = 3;
constexpr std::uint32_t kMbIntra = 4;

constexpr std::uint32_t kIntra4x4 = 1;  // intra partition code

// Parse-time sanity bounds: a fuzzed Exp-Golomb field can reach 2^32-1,
// so every value that feeds arithmetic or table indexing is range-
// checked before use (overflow and negative-modulo UB otherwise).
constexpr std::uint32_t kMaxMbPerDim = 256;  // 4096-pixel frames
constexpr int kMaxMvHalfPel = 1 << 15;

void check_mv(const MotionVector& mv) {
  if (mv.dx > kMaxMvHalfPel || mv.dx < -kMaxMvHalfPel ||
      mv.dy > kMaxMvHalfPel || mv.dy < -kMaxMvHalfPel) {
    throw BitstreamError("Decoder: motion vector out of range");
  }
}

/// Writes a row-major size x size block into `p` at (x0, y0), one row
/// copy at a time: a per-pixel `Plane::at` store may alias the plane's
/// data pointer, which then reloads for every pixel.
void store_block(Plane& p, int x0, int y0, int size, const std::uint8_t* in) {
  std::uint8_t* dst =
      p.data.data() + static_cast<std::size_t>(y0) * p.width + x0;
  for (int y = 0; y < size; ++y, dst += p.width, in += size) {
    std::memcpy(dst, in, static_cast<std::size_t>(size));
  }
}

/// Adds the dequantized, inverse-transformed residual of `levels` to the
/// 4x4 block at `buf` (row stride `stride`), clamping to 8 bits.  Callers
/// skip blocks without coefficients: their inverse transform is zero.
void add_residual(const Block4x4& levels, int qp, std::uint8_t* buf,
                  int stride) {
  const Block4x4 res = dequantize_inverse(levels, qp);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      std::uint8_t& p = buf[y * stride + x];
      p = clamp_pixel(p + res[y][x]);
    }
  }
}

void count_residual_blocks(std::uint64_t n) {
  AFFECTSYS_COUNT("h264.residual_blocks_decoded", n);
}

/// Adds one slice's residual blocks to the h264.residual_blocks_decoded
/// counter when the slice ends, also when it throws part-way.  One add
/// per slice instead of one per 4x4 block keeps decoding threads off
/// the counter's shared cache line.  The constructor looks the counter
/// up (which may allocate and throw), so the destructor only adds.
class ResidualBlockPublisher {
 public:
  explicit ResidualBlockPublisher(const std::uint64_t& blocks)
      : blocks_(blocks), start_(blocks) {
    count_residual_blocks(0);
  }
  ResidualBlockPublisher(const ResidualBlockPublisher&) = delete;
  ResidualBlockPublisher& operator=(const ResidualBlockPublisher&) = delete;
  ~ResidualBlockPublisher() { count_residual_blocks(blocks_ - start_); }

 private:
  const std::uint64_t& blocks_;
  std::uint64_t start_;
};

}  // namespace

DecodeActivity& DecodeActivity::operator+=(const DecodeActivity& o) {
  nal_units += o.nal_units;
  bytes_in += o.bytes_in;
  bits_parsed += o.bits_parsed;
  residual_blocks += o.residual_blocks;
  coefficients += o.coefficients;
  iqit_blocks += o.iqit_blocks;
  intra_mbs += o.intra_mbs;
  inter_mbs += o.inter_mbs;
  skip_mbs += o.skip_mbs;
  deblock_edges_examined += o.deblock_edges_examined;
  deblock_edges_filtered += o.deblock_edges_filtered;
  deblock_pixels += o.deblock_pixels;
  frames_decoded += o.frames_decoded;
  frames_concealed += o.frames_concealed;
  nal_errors += o.nal_errors;
  resync_skips += o.resync_skips;
  resyncs += o.resyncs;
  loss_signals += o.loss_signals;
  return *this;
}

std::optional<DecodedPicture> Decoder::decode_nal(const NalUnit& nal) {
  ++activity_.nal_units;
  activity_.bytes_in += nal.byte_size();
  AFFECTSYS_COUNT("h264.nal_units", 1);
  AFFECTSYS_COUNT("h264.bytes_in", nal.byte_size());
  try {
    return decode_nal_checked(nal);
  } catch (const BitstreamError& e) {
    ++activity_.nal_errors;
    AFFECTSYS_COUNT("h264.nal_errors", 1);
    if (!cfg_.resilient) throw DecodeError(e.what(), nal.type);
    if (is_slice(nal)) {
      // The prediction chain is broken: a lost picture means every
      // following P/B slice would predict from the wrong frame.  Drop
      // the references and discard slices until the next keyframe.
      refs_held_ = 0;
      awaiting_keyframe_ = true;
    }
    return std::nullopt;
  }
}

void Decoder::notify_loss() {
  ++activity_.loss_signals;
  AFFECTSYS_COUNT("h264.loss_signals", 1);
  if (!cfg_.resilient) return;
  // Same recovery as a malformed slice: the prediction chain is broken
  // at an unknown point, so nothing referencing the current state can
  // be trusted until the next keyframe.
  refs_held_ = 0;
  awaiting_keyframe_ = true;
}

void Decoder::reset(const DecoderConfig& cfg) {
  cfg_ = cfg;
  activity_ = {};
  width_ = 0;
  height_ = 0;
  qp_ = 26;
  pps_deblock_ = true;
  have_sps_ = false;
  awaiting_keyframe_ = false;
  refs_held_ = 0;
  // ref_a_/ref_b_ contents are stale but unreachable (refs_held_ == 0
  // guards every read); keeping them preserves their buffer capacity
  // for the first reference assignments of the next stream.
}

void Decoder::recycle(YuvFrame&& frame) {
  if (frame.width() == 0) return;
  spare_frames_.push_back(std::move(frame));
}

YuvFrame Decoder::take_frame() {
  while (!spare_frames_.empty()) {
    YuvFrame f = std::move(spare_frames_.back());
    spare_frames_.pop_back();
    if (f.width() != width_ || f.height() != height_) continue;  // stale size
    // Intra 4x4 reads neighbours that are not reconstructed yet (through
    // the top-right and edge clamps), so a recycled frame must start
    // from exactly the fill a fresh one has.
    f.blank();
    return f;
  }
  return YuvFrame(width_, height_);
}

std::optional<DecodedPicture> Decoder::decode_nal_checked(const NalUnit& nal) {
  // Emulation-prevention removal is done per branch: decode_slice()
  // de-escapes its own payload, and doing it here as well copied every
  // slice payload twice (measurable as wall-vs-observed skew in
  // bench_main, since the duplicate ran outside the decode_ns scope).
  switch (nal.type) {
    case NalType::kSps: {
      remove_emulation_prevention_into(nal.payload, rbsp_);
      BitReader br(rbsp_);
      br.get_bits(24);  // profile / constraints / level
      br.get_ue();      // sps_id
      const std::uint32_t wmb = br.get_ue();
      const std::uint32_t hmb = br.get_ue();
      if (wmb >= kMaxMbPerDim || hmb >= kMaxMbPerDim) {
        throw BitstreamError("Decoder: SPS dimensions out of range");
      }
      width_ = (static_cast<int>(wmb) + 1) * kMbSize;
      height_ = (static_cast<int>(hmb) + 1) * kMbSize;
      have_sps_ = true;
      activity_.bits_parsed += br.bits_consumed();
      return std::nullopt;
    }
    case NalType::kPps: {
      remove_emulation_prevention_into(nal.payload, rbsp_);
      BitReader br(rbsp_);
      br.get_ue();  // pps_id
      br.get_ue();  // sps_id
      const std::int64_t pps_qp =
          static_cast<std::int64_t>(br.get_se()) + 26;
      if (pps_qp < 0 || pps_qp > 51) {
        throw BitstreamError("Decoder: PPS qp out of range");
      }
      qp_ = static_cast<int>(pps_qp);
      pps_deblock_ = br.get_bit();
      activity_.bits_parsed += br.bits_consumed();
      return std::nullopt;
    }
    case NalType::kSliceIdr:
    case NalType::kSliceNonIdr: {
      if (!have_sps_) {
        throw BitstreamError("Decoder: slice before parameter sets");
      }
      if (awaiting_keyframe_ && nal.type != NalType::kSliceIdr) {
        // Resilient resync: everything until the next keyframe predicts
        // from pictures we no longer trust.
        ++activity_.resync_skips;
        AFFECTSYS_COUNT("h264.resync_skips", 1);
        return std::nullopt;
      }
      auto pic = decode_slice(nal);
      if (awaiting_keyframe_) {
        awaiting_keyframe_ = false;
        ++activity_.resyncs;
        AFFECTSYS_COUNT("h264.resyncs", 1);
      }
      return pic;
    }
    default:
      return std::nullopt;
  }
}

DecodedPicture Decoder::decode_slice(const NalUnit& nal) {
  AFFECTSYS_TIME_SCOPE("h264.decode_ns");
  const ResidualBlockPublisher publish_residual_blocks(
      activity_.residual_blocks);
  remove_emulation_prevention_into(nal.payload, rbsp_);
  BitReader br(rbsp_);

  br.get_ue();  // first_mb_in_slice
  const auto type = static_cast<SliceType>(br.get_ue() % 5);
  br.get_ue();  // frame_num
  const int poc = static_cast<int>(br.get_ue());
  const std::int64_t qp64 = qp_ + static_cast<std::int64_t>(br.get_se());
  if (qp64 < 0 || qp64 > 51) {
    // Out-of-range qp would index the dequant tables with a negative
    // modulo and left-shift past the value bits — refuse the slice.
    throw BitstreamError("Decoder: slice qp out of range");
  }
  const int qp = static_cast<int>(qp64);

  if (type != SliceType::kI && refs_held_ == 0) {
    throw BitstreamError("Decoder: inter slice without references");
  }
  const YuvFrame* fwd = nullptr;
  const YuvFrame* bwd = nullptr;
  if (type == SliceType::kP) {
    fwd = &ref_b_;
  } else if (type == SliceType::kB) {
    // B pictures use the two most recent references: older = forward.
    fwd = refs_held_ >= 2 ? &ref_a_ : &ref_b_;
    bwd = &ref_b_;
  }

  YuvFrame recon = take_frame();
  const int mb_cols = width_ / kMbSize;
  const int mb_rows = height_ / kMbSize;
  mb_info_.assign(static_cast<std::size_t>(mb_cols) * mb_rows, MbInfo{});
  std::vector<MbInfo>& mb_info = mb_info_;

  std::uint8_t pred[kMbSize * kMbSize];
  std::uint8_t pred_b[kMbSize * kMbSize];
  std::uint8_t pred_cb[64], pred_cr[64], tmp_c[64];

  // The four 4x4 residual blocks of one 8x8 chroma prediction.
  auto decode_chroma = [&](std::uint8_t* buf) {
    for (int b = 0; b < 4; ++b) {
      int nz = 0;
      const Block4x4 levels = decode_residual_block(br, &nz);
      ++activity_.residual_blocks;
      activity_.coefficients += static_cast<std::uint64_t>(nz);
      if (nz > 0) {
        ++activity_.iqit_blocks;
        add_residual(levels, qp, buf + (b / 2) * 4 * 8 + (b % 2) * 4, 8);
      }
    }
  };

  for (int mby = 0; mby < mb_rows; ++mby) {
    for (int mbx = 0; mbx < mb_cols; ++mbx) {
      const int x0 = mbx * kMbSize;
      const int y0 = mby * kMbSize;
      MbInfo& info = mb_info[static_cast<std::size_t>(mby) * mb_cols + mbx];

      std::uint32_t mb_type;
      std::uint32_t intra_partition = 0;
      IntraMode luma_mode = IntraMode::kDc;
      IntraMode chroma_mode = IntraMode::kDc;
      MotionVector mv{}, mv_bwd{};

      if (type == SliceType::kI) {
        mb_type = kMbIntra;
        intra_partition = br.get_ue();
        if (intra_partition != kIntra4x4) {
          luma_mode = static_cast<IntraMode>(br.get_ue() % kNumIntraModes);
          chroma_mode = static_cast<IntraMode>(br.get_ue() % kNumIntraModes);
        }
      } else {
        mb_type = br.get_ue();
        if (mb_type == kMbIntra) {
          intra_partition = br.get_ue();
          if (intra_partition != kIntra4x4) {
            luma_mode = static_cast<IntraMode>(br.get_ue() % kNumIntraModes);
            chroma_mode = static_cast<IntraMode>(br.get_ue() % kNumIntraModes);
          }
        } else if (mb_type != kMbSkip) {
          if (mb_type > kMbInterBi) {
            throw BitstreamError("Decoder: invalid mb_type");
          }
          if (type != SliceType::kB &&
              (mb_type == kMbInterBwd || mb_type == kMbInterBi)) {
            // Backward/bi prediction outside a B slice has no backward
            // reference to read from (bwd stays null).
            throw BitstreamError("Decoder: B-type macroblock in non-B slice");
          }
          mv.dx = br.get_se();
          mv.dy = br.get_se();
          check_mv(mv);
          if (mb_type == kMbInterBi) {
            mv_bwd.dx = br.get_se();
            mv_bwd.dy = br.get_se();
            check_mv(mv_bwd);
          }
        }
      }

      // ---- Intra-4x4 path (interleaved mode/residual, in-place recon) ----
      if (mb_type == kMbIntra && intra_partition == kIntra4x4) {
        ++activity_.intra_mbs;
        info.intra = true;
        for (int by = 0; by < 4; ++by) {
          for (int bx = 0; bx < 4; ++bx) {
            const auto mode = static_cast<Intra4Mode>(
                br.get_ue() % kNumIntra4Modes);
            std::uint8_t p4[16];
            intra4_predict(recon.y, x0 + bx * 4, y0 + by * 4, mode, p4);
            int nz = 0;
            const Block4x4 levels = decode_residual_block(br, &nz);
            ++activity_.residual_blocks;
            activity_.coefficients += static_cast<std::uint64_t>(nz);
            info.nonzero[static_cast<std::size_t>(by * 4 + bx)] = nz > 0;
            if (nz > 0) {
              ++activity_.iqit_blocks;
              add_residual(levels, qp, p4, 4);
            }
            store_block(recon.y, x0 + bx * 4, y0 + by * 4, 4, p4);
          }
        }
        chroma_mode = static_cast<IntraMode>(br.get_ue() % kNumIntraModes);
        intra_predict(recon.cb, x0 / 2, y0 / 2, 8, chroma_mode, pred_cb);
        intra_predict(recon.cr, x0 / 2, y0 / 2, 8, chroma_mode, pred_cr);
        decode_chroma(pred_cb);
        decode_chroma(pred_cr);
        store_block(recon.cb, x0 / 2, y0 / 2, 8, pred_cb);
        store_block(recon.cr, x0 / 2, y0 / 2, 8, pred_cr);
        continue;  // MB fully reconstructed
      }

      // ---- Prediction -----------------------------------------------------
      if (mb_type == kMbIntra) {
        ++activity_.intra_mbs;
        info.intra = true;
        intra_predict(recon.y, x0, y0, kMbSize, luma_mode, pred);
        intra_predict(recon.cb, x0 / 2, y0 / 2, 8, chroma_mode, pred_cb);
        intra_predict(recon.cr, x0 / 2, y0 / 2, 8, chroma_mode, pred_cr);
      } else {
        const bool skip = mb_type == kMbSkip;
        if (skip) {
          ++activity_.skip_mbs;
          info.skipped = true;
          // P skip: zero-MV copy from forward ref.  B skip: zero-MV
          // bi-average (mirrors the encoder's skip condition).
          if (type == SliceType::kB && bwd) mb_type = kMbInterBi;
          else mb_type = kMbInterFwd;
          mv = {};
          mv_bwd = {};
        } else {
          ++activity_.inter_mbs;
        }
        // Motion vectors are coded in half-pel units; chroma uses the
        // rounded full-pel offset (mv/4).
        const MotionVector cmv{mv.dx / 4, mv.dy / 4};
        if (mb_type == kMbInterBi) {
          motion_compensate_halfpel(fwd->y, x0, y0, kMbSize, mv, pred);
          motion_compensate_halfpel(bwd->y, x0, y0, kMbSize, mv_bwd, pred_b);
          average_predictions(pred, pred_b, pred, kMbSize * kMbSize);
          const MotionVector cmvb{mv_bwd.dx / 4, mv_bwd.dy / 4};
          motion_compensate(fwd->cb, x0 / 2, y0 / 2, 8, cmv, pred_cb);
          motion_compensate(bwd->cb, x0 / 2, y0 / 2, 8, cmvb, tmp_c);
          average_predictions(pred_cb, tmp_c, pred_cb, 64);
          motion_compensate(fwd->cr, x0 / 2, y0 / 2, 8, cmv, pred_cr);
          motion_compensate(bwd->cr, x0 / 2, y0 / 2, 8, cmvb, tmp_c);
          average_predictions(pred_cr, tmp_c, pred_cr, 64);
        } else {
          const YuvFrame* ref = mb_type == kMbInterBwd ? bwd : fwd;
          if (!ref) throw BitstreamError("Decoder: missing reference");
          motion_compensate_halfpel(ref->y, x0, y0, kMbSize, mv, pred);
          motion_compensate(ref->cb, x0 / 2, y0 / 2, 8, cmv, pred_cb);
          motion_compensate(ref->cr, x0 / 2, y0 / 2, 8, cmv, pred_cr);
        }
        info.mv = mv;
      }

      // ---- Residual + reconstruction --------------------------------------
      if (!info.skipped) {
        for (int by = 0; by < 4; ++by) {
          for (int bx = 0; bx < 4; ++bx) {
            int nz = 0;
            const Block4x4 levels = decode_residual_block(br, &nz);
            ++activity_.residual_blocks;
            activity_.coefficients += static_cast<std::uint64_t>(nz);
            info.nonzero[static_cast<std::size_t>(by * 4 + bx)] = nz > 0;
            if (nz > 0) {
              ++activity_.iqit_blocks;
              add_residual(levels, qp, pred + by * 4 * kMbSize + bx * 4,
                           kMbSize);
            }
          }
        }
        decode_chroma(pred_cb);
        decode_chroma(pred_cr);
      }
      store_block(recon.y, x0, y0, kMbSize, pred);
      store_block(recon.cb, x0 / 2, y0 / 2, 8, pred_cb);
      store_block(recon.cr, x0 / 2, y0 / 2, 8, pred_cr);
    }
  }
  activity_.bits_parsed += br.bits_consumed();
  AFFECTSYS_COUNT("h264.mbs_decoded",
                  static_cast<std::uint64_t>(mb_cols) * mb_rows);
  AFFECTSYS_COUNT("h264.bits_parsed", br.bits_consumed());

  if (deblock_enabled()) {
    const DeblockStats st = deblock_frame(recon, mb_info, qp);
    activity_.deblock_edges_examined += st.edges_examined;
    activity_.deblock_edges_filtered += st.edges_filtered;
    activity_.deblock_pixels += st.pixels_modified;
  }
  ++activity_.frames_decoded;
  AFFECTSYS_COUNT("h264.frames_decoded", 1);

  // Reference management: I/P pictures (ref_idc > 0) become references.
  // Swap instead of move-assigning ref_b_ into ref_a_ so the retired
  // ref_a_ buffer lands in ref_b_ and its capacity is reused by the
  // copy-assignment (state after the two statements is identical to the
  // old move+copy, minus the allocation).
  if (nal.ref_idc > 0) {
    std::swap(ref_a_, ref_b_);
    ref_b_ = recon;  // copy: recon is also returned for display
    refs_held_ = std::min(refs_held_ + 1, 2);
  }

  DecodedPicture pic;
  pic.frame = std::move(recon);
  pic.poc = poc;
  pic.type = type;
  return pic;
}

std::vector<DecodedPicture> Decoder::decode_annexb(
    std::span<const std::uint8_t> stream) {
  const std::vector<NalUnit> units = unpack_annexb(stream);
  std::vector<DecodedPicture> out;
  out.reserve(units.size());  // upper bound: not every NAL yields a picture
  for (const NalUnit& nal : units) {
    if (auto pic = decode_nal(nal)) out.push_back(std::move(*pic));
  }
  return out;
}

std::vector<DecodedPicture> assemble_display_sequence(
    std::vector<DecodedPicture> decoded, int expected_pictures) {
  std::sort(decoded.begin(), decoded.end(),
            [](const DecodedPicture& a, const DecodedPicture& b) {
              return a.poc < b.poc;
            });
  std::vector<DecodedPicture> out;
  out.reserve(static_cast<std::size_t>(expected_pictures));
  std::size_t next = 0;
  for (int poc = 0; poc < expected_pictures; ++poc) {
    if (next < decoded.size() && decoded[next].poc == poc) {
      out.push_back(std::move(decoded[next]));
      ++next;
    } else if (!out.empty()) {
      DecodedPicture copy;
      copy.frame = out.back().frame;
      copy.poc = poc;
      copy.type = out.back().type;
      copy.concealed = true;
      out.push_back(std::move(copy));
    } else if (next < decoded.size()) {
      // Leading gap: conceal with the first available picture.
      DecodedPicture copy;
      copy.frame = decoded[next].frame;
      copy.poc = poc;
      copy.type = decoded[next].type;
      copy.concealed = true;
      out.push_back(std::move(copy));
    }
  }
  return out;
}

}  // namespace affectsys::h264
