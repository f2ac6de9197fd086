#include "h264/encoder.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "h264/bitstream.hpp"
#include "h264/deblock.hpp"
#include "h264/entropy.hpp"
#include "h264/inter.hpp"
#include "h264/intra.hpp"
#include "h264/intra4.hpp"
#include "h264/transform.hpp"

namespace affectsys::h264 {
namespace {

// mb_type codes written to the slice data.
constexpr std::uint32_t kMbSkip = 0;
constexpr std::uint32_t kMbInterFwd = 1;   // P: the only inter type
constexpr std::uint32_t kMbInterBwd = 2;   // B only
constexpr std::uint32_t kMbInterBi = 3;    // B only
constexpr std::uint32_t kMbIntra = 4;

// intra partition codes (after the intra signal).
constexpr std::uint32_t kIntra16x16 = 0;
constexpr std::uint32_t kIntra4x4 = 1;

/// Extracts a size x size block from a plane into a row-major buffer.
void load_block(const Plane& p, int x0, int y0, int size, std::uint8_t* out) {
  for (int y = 0; y < size; ++y) {
    for (int x = 0; x < size; ++x) out[y * size + x] = p.at(x0 + x, y0 + y);
  }
}

/// Writes a reconstructed block back into a plane.
void store_block(Plane& p, int x0, int y0, int size, const std::uint8_t* in) {
  for (int y = 0; y < size; ++y) {
    for (int x = 0; x < size; ++x) p.at(x0 + x, y0 + y) = in[y * size + x];
  }
}

struct BlockCoder {
  /// Transform+quantize the (src - pred) residual of one 4x4 sub-block,
  /// reconstruct into recon, and return the quantized levels.
  static Block4x4 code(const std::uint8_t* src, const std::uint8_t* pred,
                       std::uint8_t* recon, int stride, int bx, int by,
                       int qp) {
    Block4x4 residual{};
    for (int y = 0; y < 4; ++y) {
      for (int x = 0; x < 4; ++x) {
        const int idx = (by + y) * stride + bx + x;
        residual[y][x] = static_cast<int>(src[idx]) - pred[idx];
      }
    }
    const Block4x4 levels = transform_quantize(residual, qp);
    const Block4x4 rec = dequantize_inverse(levels, qp);
    for (int y = 0; y < 4; ++y) {
      for (int x = 0; x < 4; ++x) {
        const int idx = (by + y) * stride + bx + x;
        recon[idx] = clamp_pixel(pred[idx] + rec[y][x]);
      }
    }
    return levels;
  }
};

/// Codes one intra-4x4 luma block directly against the recon plane:
/// choose mode, emit syntax + residual, reconstruct in place.
/// Returns true when the block has coded coefficients.
bool code_intra4x4_block(BitWriter& bw, const Plane& src, Plane& recon,
                         int x0, int y0, int qp) {
  const Intra4Mode mode = choose_intra4_mode(src, recon, x0, y0);
  bw.put_ue(static_cast<std::uint32_t>(mode));
  std::uint8_t pred[16];
  intra4_predict(recon, x0, y0, mode, pred);
  Block4x4 residual{};
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      residual[y][x] =
          static_cast<int>(src.at(x0 + x, y0 + y)) - pred[y * 4 + x];
    }
  }
  const Block4x4 levels = transform_quantize(residual, qp);
  encode_residual_block(bw, levels);
  const Block4x4 rec = dequantize_inverse(levels, qp);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      recon.at(x0 + x, y0 + y) = clamp_pixel(pred[y * 4 + x] + rec[y][x]);
    }
  }
  return count_nonzero(levels) > 0;
}

/// Estimated SAD of coding the MB as 16 intra-4x4 blocks, using source
/// neighbours as a stand-in for not-yet-final reconstructions.
int estimate_intra4x4_sad(const Plane& src, int x0, int y0) {
  int total = 0;
  for (int by = 0; by < 4; ++by) {
    for (int bx = 0; bx < 4; ++bx) {
      const Intra4Mode mode =
          choose_intra4_mode(src, src, x0 + bx * 4, y0 + by * 4);
      std::uint8_t pred[16];
      intra4_predict(src, x0 + bx * 4, y0 + by * 4, mode, pred);
      total += sad_block(src, x0 + bx * 4, y0 + by * 4, 4, pred);
    }
  }
  return total;
}

}  // namespace

Encoder::Encoder(const EncoderConfig& cfg) : cfg_(cfg) {
  if (cfg.width % kMbSize || cfg.height % kMbSize || cfg.width <= 0 ||
      cfg.height <= 0) {
    throw std::invalid_argument("Encoder: bad frame dimensions");
  }
  if (cfg.qp < 0 || cfg.qp > 51) {
    throw std::invalid_argument("Encoder: qp out of range");
  }
  if (cfg.gop_size < 1 || cfg.b_frames < 0 ||
      cfg.b_frames >= cfg.gop_size) {
    throw std::invalid_argument("Encoder: bad GOP structure");
  }
}

std::vector<NalUnit> Encoder::parameter_sets() const {
  std::vector<NalUnit> out;
  {
    // Simplified SPS: profile/level bytes + MB geometry.
    BitWriter bw;
    bw.put_bits(66, 8);  // profile_idc: baseline
    bw.put_bits(0, 8);   // constraint flags
    bw.put_bits(30, 8);  // level_idc 3.0
    bw.put_ue(0);        // sps_id
    bw.put_ue(static_cast<std::uint32_t>(cfg_.width / kMbSize - 1));
    bw.put_ue(static_cast<std::uint32_t>(cfg_.height / kMbSize - 1));
    bw.finish_rbsp();
    NalUnit sps;
    sps.type = NalType::kSps;
    sps.ref_idc = 3;
    sps.payload = add_emulation_prevention(bw.bytes());
    out.push_back(std::move(sps));
  }
  {
    BitWriter bw;
    bw.put_ue(0);  // pps_id
    bw.put_ue(0);  // sps_id
    bw.put_se(cfg_.qp - 26);  // pic_init_qp_minus26
    bw.put_bit(true);         // deblocking_filter_control: always on
    bw.finish_rbsp();
    NalUnit pps;
    pps.type = NalType::kPps;
    pps.ref_idc = 3;
    pps.payload = add_emulation_prevention(bw.bytes());
    out.push_back(std::move(pps));
  }
  return out;
}

EncodedPicture Encoder::encode_picture(const YuvFrame& src, SliceType type,
                                       int poc, const YuvFrame* fwd_ref,
                                       const YuvFrame* bwd_ref,
                                       YuvFrame* recon_out) {
  const int qp = qp_hook_ ? std::clamp(qp_hook_(type), 0, 51) : cfg_.qp;
  YuvFrame recon(cfg_.width, cfg_.height);
  std::vector<MbInfo> mb_info(static_cast<std::size_t>(src.mb_count()));

  BitWriter bw;
  // Slice header.
  bw.put_ue(0);  // first_mb_in_slice
  bw.put_ue(static_cast<std::uint32_t>(type));
  bw.put_ue(static_cast<std::uint32_t>(frame_num_));
  bw.put_ue(static_cast<std::uint32_t>(poc));
  bw.put_se(qp - cfg_.qp);  // slice_qp_delta vs pic_init_qp

  std::uint8_t src_mb[kMbSize * kMbSize];
  std::uint8_t pred[kMbSize * kMbSize];
  std::uint8_t pred_b[kMbSize * kMbSize];
  std::uint8_t rec_mb[kMbSize * kMbSize];
  std::uint8_t src_c[8 * 8], pred_c[8 * 8], pred_c2[8 * 8], rec_c[8 * 8];

  for (int mby = 0; mby < src.mb_rows(); ++mby) {
    for (int mbx = 0; mbx < src.mb_cols(); ++mbx) {
      const int x0 = mbx * kMbSize;
      const int y0 = mby * kMbSize;
      MbInfo& info = mb_info[static_cast<std::size_t>(mby) * src.mb_cols() + mbx];
      load_block(src.y, x0, y0, kMbSize, src_mb);

      // ---- Mode decision (motion vectors in HALF-PEL units) -------------
      std::uint32_t mb_type = kMbIntra;
      MotionVector mv{}, mv_bwd{};
      IntraMode luma_mode = IntraMode::kDc;
      IntraMode chroma_mode = IntraMode::kDc;
      int inter_sad = std::numeric_limits<int>::max();
      int intra16_sad = std::numeric_limits<int>::max();

      auto search = [&](const Plane& ref, int* sad) {
        return cfg_.halfpel_mc
                   ? motion_search_halfpel(src.y, ref, x0, y0, kMbSize,
                                           cfg_.search_range, sad)
                   : [&] {
                       MotionVector full = motion_search(
                           src.y, ref, x0, y0, kMbSize, cfg_.search_range,
                           sad);
                       return MotionVector{2 * full.dx, 2 * full.dy};
                     }();
      };

      if (type != SliceType::kI && fwd_ref) {
        int sad_f = 0;
        const MotionVector mvf = search(fwd_ref->y, &sad_f);
        mb_type = kMbInterFwd;
        mv = mvf;
        inter_sad = sad_f;
        if (type == SliceType::kB && bwd_ref) {
          int sad_b = 0;
          const MotionVector mvb = search(bwd_ref->y, &sad_b);
          if (sad_b < inter_sad) {
            mb_type = kMbInterBwd;
            mv = mvb;
            inter_sad = sad_b;
          }
          // Bi-prediction with the two best vectors.
          motion_compensate_halfpel(fwd_ref->y, x0, y0, kMbSize, mvf, pred);
          motion_compensate_halfpel(bwd_ref->y, x0, y0, kMbSize, mvb, pred_b);
          average_predictions(pred, pred_b, rec_mb, kMbSize * kMbSize);
          const int sad_bi = sad_block(src.y, x0, y0, kMbSize, rec_mb);
          if (sad_bi < inter_sad) {
            mb_type = kMbInterBi;
            mv = mvf;
            mv_bwd = mvb;
            inter_sad = sad_bi;
          }
        }
        // Compare with the best intra-16x16 mode.
        luma_mode = choose_intra_mode(src.y, recon.y, x0, y0, kMbSize);
        intra_predict(recon.y, x0, y0, kMbSize, luma_mode, pred);
        intra16_sad = sad_block(src.y, x0, y0, kMbSize, pred);
        if (intra16_sad < inter_sad) mb_type = kMbIntra;
      } else {
        luma_mode = choose_intra_mode(src.y, recon.y, x0, y0, kMbSize);
        intra_predict(recon.y, x0, y0, kMbSize, luma_mode, pred);
        intra16_sad = sad_block(src.y, x0, y0, kMbSize, pred);
      }

      // ---- Intra-4x4 path (interleaved syntax, in-place recon) ----------
      if (mb_type == kMbIntra && cfg_.intra4x4) {
        // Prefer 4x4 partitions when they predict markedly better; the
        // +offset charges the 16 extra mode codewords.
        const int sad4 = estimate_intra4x4_sad(src.y, x0, y0);
        if (sad4 + 64 < intra16_sad) {
          if (type != SliceType::kI) bw.put_ue(kMbIntra);
          bw.put_ue(kIntra4x4);
          info.intra = true;
          for (int by = 0; by < 4; ++by) {
            for (int bx = 0; bx < 4; ++bx) {
              info.nonzero[static_cast<std::size_t>(by * 4 + bx)] =
                  code_intra4x4_block(bw, src.y, recon.y, x0 + bx * 4,
                                      y0 + by * 4, qp);
            }
          }
          // Chroma: one 8x8 mode + 4+4 residual blocks, as in 16x16 MBs.
          chroma_mode = choose_intra_mode(src.cb, recon.cb, x0 / 2, y0 / 2, 8);
          bw.put_ue(static_cast<std::uint32_t>(chroma_mode));
          intra_predict(recon.cb, x0 / 2, y0 / 2, 8, chroma_mode, pred_c);
          intra_predict(recon.cr, x0 / 2, y0 / 2, 8, chroma_mode, pred_c2);
          std::uint8_t rec_cb4[64], rec_cr4[64];
          load_block(src.cb, x0 / 2, y0 / 2, 8, src_c);
          for (int b = 0; b < 4; ++b) {
            const Block4x4 lv = BlockCoder::code(src_c, pred_c, rec_cb4, 8,
                                                 (b % 2) * 4, (b / 2) * 4, qp);
            encode_residual_block(bw, lv);
          }
          load_block(src.cr, x0 / 2, y0 / 2, 8, src_c);
          for (int b = 0; b < 4; ++b) {
            const Block4x4 lv = BlockCoder::code(src_c, pred_c2, rec_cr4, 8,
                                                 (b % 2) * 4, (b / 2) * 4, qp);
            encode_residual_block(bw, lv);
          }
          store_block(recon.cb, x0 / 2, y0 / 2, 8, rec_cb4);
          store_block(recon.cr, x0 / 2, y0 / 2, 8, rec_cr4);
          continue;  // MB fully coded
        }
      }

      // ---- Build prediction (16x16 partitions) ---------------------------
      if (mb_type == kMbIntra) {
        intra_predict(recon.y, x0, y0, kMbSize, luma_mode, pred);
        chroma_mode = choose_intra_mode(src.cb, recon.cb, x0 / 2, y0 / 2, 8);
        intra_predict(recon.cb, x0 / 2, y0 / 2, 8, chroma_mode, pred_c);
        intra_predict(recon.cr, x0 / 2, y0 / 2, 8, chroma_mode, pred_c2);
        info.intra = true;
      } else {
        // Chroma offset: half-pel luma vector / 4 = full-pel chroma.
        const MotionVector cmv{mv.dx / 4, mv.dy / 4};
        if (mb_type == kMbInterBi) {
          motion_compensate_halfpel(fwd_ref->y, x0, y0, kMbSize, mv, pred);
          motion_compensate_halfpel(bwd_ref->y, x0, y0, kMbSize, mv_bwd,
                                    pred_b);
          average_predictions(pred, pred_b, pred, kMbSize * kMbSize);
          const MotionVector cmvb{mv_bwd.dx / 4, mv_bwd.dy / 4};
          motion_compensate(fwd_ref->cb, x0 / 2, y0 / 2, 8, cmv, pred_c);
          motion_compensate(bwd_ref->cb, x0 / 2, y0 / 2, 8, cmvb, rec_c);
          average_predictions(pred_c, rec_c, pred_c, 64);
          motion_compensate(fwd_ref->cr, x0 / 2, y0 / 2, 8, cmv, pred_c2);
          motion_compensate(bwd_ref->cr, x0 / 2, y0 / 2, 8, cmvb, rec_c);
          average_predictions(pred_c2, rec_c, pred_c2, 64);
        } else {
          const YuvFrame* ref = mb_type == kMbInterBwd ? bwd_ref : fwd_ref;
          motion_compensate_halfpel(ref->y, x0, y0, kMbSize, mv, pred);
          motion_compensate(ref->cb, x0 / 2, y0 / 2, 8, cmv, pred_c);
          motion_compensate(ref->cr, x0 / 2, y0 / 2, 8, cmv, pred_c2);
        }
        info.mv = mv;
      }

      // ---- Residual coding (into scratch first, to allow skip) -----------
      Block4x4 luma_levels[16];
      bool any_nonzero = false;
      for (int by = 0; by < 4; ++by) {
        for (int bx = 0; bx < 4; ++bx) {
          luma_levels[by * 4 + bx] = BlockCoder::code(
              src_mb, pred, rec_mb, kMbSize, bx * 4, by * 4, qp);
          const bool nz = count_nonzero(luma_levels[by * 4 + bx]) > 0;
          info.nonzero[static_cast<std::size_t>(by * 4 + bx)] = nz;
          any_nonzero |= nz;
        }
      }
      load_block(src.cb, x0 / 2, y0 / 2, 8, src_c);
      Block4x4 cb_levels[4], cr_levels[4];
      std::uint8_t rec_cb[64], rec_cr[64];
      for (int b = 0; b < 4; ++b) {
        cb_levels[b] = BlockCoder::code(src_c, pred_c, rec_cb, 8,
                                        (b % 2) * 4, (b / 2) * 4, qp);
        any_nonzero |= count_nonzero(cb_levels[b]) > 0;
      }
      load_block(src.cr, x0 / 2, y0 / 2, 8, src_c);
      for (int b = 0; b < 4; ++b) {
        cr_levels[b] = BlockCoder::code(src_c, pred_c2, rec_cr, 8,
                                        (b % 2) * 4, (b / 2) * 4, qp);
        any_nonzero |= count_nonzero(cr_levels[b]) > 0;
      }

      // Skip: inter MB with null residual and (for P) zero motion.
      const bool skippable =
          type != SliceType::kI && mb_type != kMbIntra && !any_nonzero &&
          ((type == SliceType::kP && mv == MotionVector{}) ||
           (type == SliceType::kB && mb_type == kMbInterBi &&
            mv == MotionVector{} && mv_bwd == MotionVector{}));

      // ---- Emit syntax ----------------------------------------------------
      if (type == SliceType::kI) {
        bw.put_ue(kIntra16x16);
        bw.put_ue(static_cast<std::uint32_t>(luma_mode));
        bw.put_ue(static_cast<std::uint32_t>(chroma_mode));
      } else if (skippable) {
        bw.put_ue(kMbSkip);
        info.skipped = true;
      } else {
        bw.put_ue(mb_type);
        if (mb_type == kMbIntra) {
          bw.put_ue(kIntra16x16);
          bw.put_ue(static_cast<std::uint32_t>(luma_mode));
          bw.put_ue(static_cast<std::uint32_t>(chroma_mode));
        } else {
          bw.put_se(mv.dx);
          bw.put_se(mv.dy);
          if (mb_type == kMbInterBi) {
            bw.put_se(mv_bwd.dx);
            bw.put_se(mv_bwd.dy);
          }
        }
      }
      if (!info.skipped) {
        for (const auto& blk : luma_levels) encode_residual_block(bw, blk);
        for (const auto& blk : cb_levels) encode_residual_block(bw, blk);
        for (const auto& blk : cr_levels) encode_residual_block(bw, blk);
      }

      // ---- Reconstruction -------------------------------------------------
      if (info.skipped) {
        store_block(recon.y, x0, y0, kMbSize, pred);
        store_block(recon.cb, x0 / 2, y0 / 2, 8, pred_c);
        store_block(recon.cr, x0 / 2, y0 / 2, 8, pred_c2);
      } else {
        store_block(recon.y, x0, y0, kMbSize, rec_mb);
        store_block(recon.cb, x0 / 2, y0 / 2, 8, rec_cb);
        store_block(recon.cr, x0 / 2, y0 / 2, 8, rec_cr);
      }
    }
  }
  bw.finish_rbsp();

  // In-loop deblocking of the reconstruction used for referencing.
  deblock_frame(recon, mb_info, qp);
  if (recon_out) *recon_out = std::move(recon);

  EncodedPicture pic;
  pic.type = type;
  pic.poc = poc;
  pic.nal.type = type == SliceType::kI ? NalType::kSliceIdr
                                       : NalType::kSliceNonIdr;
  pic.nal.ref_idc = type == SliceType::kB ? 0 : (type == SliceType::kI ? 3 : 2);
  pic.nal.payload = add_emulation_prevention(bw.bytes());
  ++frame_num_;
  if (coded_hook_) coded_hook_(pic);
  return pic;
}

std::vector<EncodedPicture> Encoder::encode_rate_controlled(
    const std::vector<YuvFrame>& frames, RateController& rc) {
  qp_hook_ = [&rc](SliceType type) {
    // References deserve a finer QP than disposable pictures.
    return type == SliceType::kB ? rc.next_qp() + 2 : rc.next_qp();
  };
  coded_hook_ = [&rc](const EncodedPicture& pic) {
    rc.picture_coded(pic.nal.byte_size());
  };
  auto out = encode(frames);
  qp_hook_ = nullptr;
  coded_hook_ = nullptr;
  return out;
}

std::vector<EncodedPicture> Encoder::encode(
    const std::vector<YuvFrame>& frames) {
  std::vector<EncodedPicture> out;
  if (frames.empty()) return out;
  frame_num_ = 0;

  YuvFrame ref_a;  // older reference (forward for B)
  YuvFrame ref_b;  // newer reference
  bool have_ref = false;

  std::vector<int> pending_b;  // display indices awaiting a future ref

  auto flush_bs = [&](const YuvFrame& fwd, const YuvFrame& bwd) {
    for (int bidx : pending_b) {
      out.push_back(encode_picture(frames[static_cast<std::size_t>(bidx)],
                                   SliceType::kB, bidx, &fwd, &bwd, nullptr));
    }
    pending_b.clear();
  };

  const int step = cfg_.b_frames + 1;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const int disp = static_cast<int>(i);
    const bool is_idr = disp % cfg_.gop_size == 0;
    const bool is_ref = is_idr || disp % step == 0;
    if (!is_ref) {
      pending_b.push_back(disp);
      continue;
    }
    const SliceType type = is_idr ? SliceType::kI : SliceType::kP;
    YuvFrame recon;
    out.push_back(encode_picture(frames[i], type, disp,
                                 have_ref ? &ref_b : nullptr, nullptr,
                                 &recon));
    if (have_ref) {
      flush_bs(ref_b, recon);  // Bs between the previous ref and this one
    } else {
      pending_b.clear();  // no forward reference available (stream start)
    }
    ref_a = std::move(ref_b);
    ref_b = std::move(recon);
    have_ref = true;
  }
  // Trailing Bs with no future reference: encode as P against the last ref.
  for (int bidx : pending_b) {
    out.push_back(encode_picture(frames[static_cast<std::size_t>(bidx)],
                                 SliceType::kP, bidx, &ref_b, nullptr,
                                 nullptr));
  }
  return out;
}

std::vector<std::uint8_t> Encoder::encode_annexb(
    const std::vector<YuvFrame>& frames) {
  std::vector<NalUnit> units = parameter_sets();
  for (EncodedPicture& pic : encode(frames)) {
    units.push_back(std::move(pic.nal));
  }
  return pack_annexb(units);
}

}  // namespace affectsys::h264
