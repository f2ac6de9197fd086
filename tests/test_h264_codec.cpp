// Integration tests across the codec: transform/quantization invariants,
// prediction, full encode-decode round trips, deblocking behaviour and
// concealment after NAL deletion.
#include <gtest/gtest.h>

#include <random>

#include "h264/bitstream.hpp"
#include "h264/decoder.hpp"
#include "h264/deblock.hpp"
#include "h264/encoder.hpp"
#include "h264/inter.hpp"
#include "h264/intra.hpp"
#include "h264/intra4.hpp"
#include "h264/quality.hpp"
#include "h264/testvideo.hpp"
#include "h264/transform.hpp"
#include "h264_golden_clip.hpp"
#include "obs/metrics.hpp"

namespace h264 = affectsys::h264;

// ---------------------------------------------------------------- transform

TEST(Transform, InverseOfForwardIsScaledIdentityFreeAtQp0) {
  // At QP 0 the quantization ladder is nearly lossless for small values.
  std::mt19937 rng(1);
  std::uniform_int_distribution<int> d(-64, 64);
  for (int iter = 0; iter < 100; ++iter) {
    h264::Block4x4 res{};
    for (auto& row : res) {
      for (auto& x : row) x = d(rng);
    }
    const auto rec = h264::dequantize_inverse(h264::transform_quantize(res, 0), 0);
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        EXPECT_NEAR(rec[i][j], res[i][j], 2) << "at " << i << "," << j;
      }
    }
  }
}

class QuantizationError : public ::testing::TestWithParam<int> {};

TEST_P(QuantizationError, BoundedByQuantStep) {
  const int qp = GetParam();
  std::mt19937 rng(qp);
  std::uniform_int_distribution<int> d(-100, 100);
  double worst = 0.0;
  for (int iter = 0; iter < 50; ++iter) {
    h264::Block4x4 res{};
    for (auto& row : res) {
      for (auto& x : row) x = d(rng);
    }
    const auto rec =
        h264::dequantize_inverse(h264::transform_quantize(res, qp), qp);
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        worst = std::max(worst, std::abs(static_cast<double>(rec[i][j]) - res[i][j]));
      }
    }
  }
  // Quantization step doubles every 6 QP; error should track it.
  const double qstep = 0.625 * std::pow(2.0, qp / 6.0);
  EXPECT_LE(worst, qstep * 1.5 + 2.0);
}

INSTANTIATE_TEST_SUITE_P(QpSweep, QuantizationError,
                         ::testing::Values(0, 6, 12, 18, 24, 30, 36));

TEST(Transform, HigherQpNeverIncreasesNonzeroCount) {
  std::mt19937 rng(5);
  std::uniform_int_distribution<int> d(-80, 80);
  for (int iter = 0; iter < 50; ++iter) {
    h264::Block4x4 res{};
    for (auto& row : res) {
      for (auto& x : row) x = d(rng);
    }
    int prev = 17;
    for (int qp = 0; qp <= 48; qp += 8) {
      const int nz = h264::count_nonzero(h264::transform_quantize(res, qp));
      EXPECT_LE(nz, prev);
      prev = nz;
    }
  }
}

// ---------------------------------------------------------------- prediction

TEST(Intra, DcPredictsNeighbourAverage) {
  h264::Plane recon(32, 32, 0);
  for (int x = 0; x < 32; ++x) recon.at(x, 7) = 100;  // row above block
  for (int y = 0; y < 32; ++y) recon.at(7, y) = 200;  // col left of block
  std::uint8_t pred[16 * 16];
  h264::intra_predict(recon, 8, 8, 16, h264::IntraMode::kDc, pred);
  EXPECT_EQ(pred[0], 150);  // (16*100 + 16*200 + 16) / 32
}

TEST(Intra, VerticalReplicatesTopRow) {
  h264::Plane recon(32, 32, 0);
  for (int x = 0; x < 32; ++x) recon.at(x, 7) = static_cast<std::uint8_t>(x);
  std::uint8_t pred[16 * 16];
  h264::intra_predict(recon, 8, 8, 16, h264::IntraMode::kVertical, pred);
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) EXPECT_EQ(pred[y * 16 + x], 8 + x);
  }
}

TEST(Intra, UnavailableNeighboursFallBackTo128) {
  h264::Plane recon(32, 32, 77);
  std::uint8_t pred[16 * 16];
  h264::intra_predict(recon, 0, 0, 16, h264::IntraMode::kDc, pred);
  EXPECT_EQ(pred[0], 128);
  h264::intra_predict(recon, 0, 0, 16, h264::IntraMode::kVertical, pred);
  EXPECT_EQ(pred[0], 128);
}

TEST(Inter, MotionSearchFindsKnownShift) {
  // Build a reference with a distinctive patch, then shift it.
  h264::Plane ref(64, 64, 10);
  std::mt19937 rng(3);
  std::uniform_int_distribution<int> d(0, 255);
  for (int y = 16; y < 40; ++y) {
    for (int x = 16; x < 40; ++x) ref.at(x, y) = static_cast<std::uint8_t>(d(rng));
  }
  h264::Plane cur(64, 64, 10);
  const int sx = 2, sy = -3;
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) cur.at(x, y) = ref.at_clamped(x + sx, y + sy);
  }
  int sad = -1;
  const auto mv = h264::motion_search(cur, ref, 16, 16, 16, 4, &sad);
  EXPECT_EQ(mv.dx, sx);
  EXPECT_EQ(mv.dy, sy);
  EXPECT_LE(sad, 2 * (std::abs(sx) + std::abs(sy)));  // only the zero-bias
}

TEST(Inter, AveragePredictionsRoundsToNearest) {
  const std::uint8_t a[4] = {0, 1, 255, 100};
  const std::uint8_t b[4] = {1, 2, 255, 101};
  std::uint8_t out[4];
  h264::average_predictions(a, b, out, 4);
  EXPECT_EQ(out[0], 1);  // (0+1+1)/2
  EXPECT_EQ(out[1], 2);
  EXPECT_EQ(out[2], 255);
  EXPECT_EQ(out[3], 101);
}

// ---------------------------------------------------------------- deblocking

TEST(Deblock, BoundaryStrengthRules) {
  h264::MbInfo intra_mb;
  intra_mb.intra = true;
  h264::MbInfo coded_mb;
  coded_mb.nonzero[3] = true;
  h264::MbInfo moving_mb;
  moving_mb.mv = {2, 0};
  h264::MbInfo still_mb;

  EXPECT_EQ(h264::boundary_strength(intra_mb, 0, still_mb, 0, true), 4);
  EXPECT_EQ(h264::boundary_strength(intra_mb, 0, still_mb, 0, false), 3);
  EXPECT_EQ(h264::boundary_strength(coded_mb, 3, still_mb, 0, true), 2);
  EXPECT_EQ(h264::boundary_strength(moving_mb, 0, still_mb, 0, true), 1);
  EXPECT_EQ(h264::boundary_strength(still_mb, 0, still_mb, 0, true), 0);
}

TEST(Deblock, SmoothsBlockEdge) {
  h264::YuvFrame f(32, 32);
  // Hard vertical step at the MB boundary x=16.
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 32; ++x) f.y.at(x, y) = x < 16 ? 60 : 90;
  }
  std::vector<h264::MbInfo> info(4);
  for (auto& mi : info) mi.intra = true;
  const int step_before = std::abs(f.y.at(16, 8) - f.y.at(15, 8));
  // QP 36: alpha = 50 > |90-60|, so the edge qualifies for filtering.
  const auto stats = h264::deblock_frame(f, info, 36);
  const int step_after = std::abs(f.y.at(16, 8) - f.y.at(15, 8));
  EXPECT_GT(stats.edges_filtered, 0u);
  EXPECT_LT(step_after, step_before);
}

TEST(Deblock, LowQpSkipsSmoothEdges) {
  h264::YuvFrame f(32, 32);
  for (auto& v : f.y.data) v = 100;  // perfectly flat
  std::vector<h264::MbInfo> info(4);
  const auto stats = h264::deblock_frame(f, info, 30);
  // bs==0 everywhere (no intra, no residual, no motion difference).
  EXPECT_EQ(stats.edges_filtered, 0u);
}

// ---------------------------------------------------------------- end-to-end

TEST(Codec, AllIntraPsnrReasonable) {
  h264::VideoConfig vc;
  vc.width = 64;
  vc.height = 64;
  vc.frames = 3;
  auto video = h264::generate_test_video(vc);

  h264::EncoderConfig ec;
  ec.width = vc.width;
  ec.height = vc.height;
  ec.qp = 20;
  ec.gop_size = 1;
  ec.b_frames = 0;
  h264::Encoder enc(ec);
  const auto stream = enc.encode_annexb(video);

  h264::Decoder dec;
  auto decoded = dec.decode_annexb(stream);
  ASSERT_EQ(decoded.size(), video.size());
  auto display = h264::assemble_display_sequence(std::move(decoded),
                                                 static_cast<int>(video.size()));
  for (std::size_t i = 0; i < video.size(); ++i) {
    EXPECT_GT(h264::psnr_luma(video[i], display[i].frame), 30.0)
        << "frame " << i;
  }
}

class GopRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GopRoundTrip, DecodesWithGoodQuality) {
  const auto [gop, bframes, qp] = GetParam();
  h264::VideoConfig vc;
  vc.width = 64;
  vc.height = 64;
  vc.frames = 12;
  vc.motion = 1.0;
  auto video = h264::generate_test_video(vc);

  h264::EncoderConfig ec;
  ec.width = vc.width;
  ec.height = vc.height;
  ec.qp = qp;
  ec.gop_size = gop;
  ec.b_frames = bframes;
  h264::Encoder enc(ec);
  const auto stream = enc.encode_annexb(video);

  h264::Decoder dec;
  auto display = h264::assemble_display_sequence(
      dec.decode_annexb(stream), static_cast<int>(video.size()));
  ASSERT_EQ(display.size(), video.size());
  for (std::size_t i = 0; i < video.size(); ++i) {
    EXPECT_FALSE(display[i].concealed) << "frame " << i;
    EXPECT_GT(h264::psnr_luma(video[i], display[i].frame), 27.0)
        << "frame " << i << " gop=" << gop << " b=" << bframes;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Structures, GopRoundTrip,
    ::testing::Values(std::make_tuple(12, 0, 24),   // IPPP
                      std::make_tuple(12, 2, 24),   // IBBP
                      std::make_tuple(6, 1, 24),    // IBPBP
                      std::make_tuple(12, 2, 32),   // coarser QP
                      std::make_tuple(4, 0, 20)));

TEST(Codec, HigherQpShrinksStream) {
  h264::VideoConfig vc;
  vc.width = 64;
  vc.height = 64;
  vc.frames = 6;
  auto video = h264::generate_test_video(vc);
  std::size_t prev = SIZE_MAX;
  for (int qp : {16, 28, 40}) {
    h264::EncoderConfig ec;
    ec.width = vc.width;
    ec.height = vc.height;
    ec.qp = qp;
    ec.gop_size = 6;
    ec.b_frames = 0;
    h264::Encoder enc(ec);
    const std::size_t size = enc.encode_annexb(video).size();
    EXPECT_LT(size, prev) << "qp " << qp;
    prev = size;
  }
}

TEST(Codec, DeletedBFrameNalsConcealButKeepRefsIntact) {
  h264::VideoConfig vc;
  vc.width = 64;
  vc.height = 64;
  vc.frames = 12;
  auto video = h264::generate_test_video(vc);

  h264::EncoderConfig ec;
  ec.width = vc.width;
  ec.height = vc.height;
  ec.qp = 26;
  ec.gop_size = 12;
  ec.b_frames = 2;
  h264::Encoder enc(ec);
  auto units = enc.parameter_sets();
  auto pics = enc.encode(video);
  int deleted = 0;
  for (auto& pic : pics) {
    // Drop every disposable (B) NAL unit.
    if (pic.nal.ref_idc == 0) {
      ++deleted;
      continue;
    }
    units.push_back(std::move(pic.nal));
  }
  ASSERT_GT(deleted, 0);

  h264::Decoder dec;
  auto display = h264::assemble_display_sequence(
      dec.decode_annexb(h264::pack_annexb(units)),
      static_cast<int>(video.size()));
  ASSERT_EQ(display.size(), video.size());
  int concealed = 0;
  for (std::size_t i = 0; i < display.size(); ++i) {
    if (display[i].concealed) {
      ++concealed;
    } else {
      // Reference pictures must still decode at full quality.
      EXPECT_GT(h264::psnr_luma(video[i], display[i].frame), 27.0);
    }
  }
  EXPECT_EQ(concealed, deleted);
}

TEST(Codec, DisablingDeblockReducesActivityAndQuality) {
  h264::VideoConfig vc;
  vc.width = 64;
  vc.height = 64;
  vc.frames = 6;
  auto video = h264::generate_test_video(vc);

  h264::EncoderConfig ec;
  ec.width = vc.width;
  ec.height = vc.height;
  ec.qp = 34;  // coarse QP so DF matters
  ec.gop_size = 6;
  ec.b_frames = 0;
  h264::Encoder enc1(ec), enc2(ec);
  const auto stream = enc1.encode_annexb(video);
  const auto stream2 = enc2.encode_annexb(video);
  ASSERT_EQ(stream, stream2);  // determinism check

  h264::Decoder with_df({.enable_deblock = true});
  h264::Decoder without_df({.enable_deblock = false});
  auto disp_on = h264::assemble_display_sequence(
      with_df.decode_annexb(stream), static_cast<int>(video.size()));
  auto disp_off = h264::assemble_display_sequence(
      without_df.decode_annexb(stream), static_cast<int>(video.size()));

  EXPECT_GT(with_df.activity().deblock_edges_examined, 0u);
  EXPECT_EQ(without_df.activity().deblock_edges_examined, 0u);

  std::vector<h264::YuvFrame> on, off;
  for (auto& p : disp_on) on.push_back(std::move(p.frame));
  for (auto& p : disp_off) off.push_back(std::move(p.frame));
  const double psnr_on = h264::sequence_psnr(video, on);
  const double psnr_off = h264::sequence_psnr(video, off);
  // DF-off output differs from DF-on and should be no better.
  EXPECT_LE(psnr_off, psnr_on + 0.2);
}

// ---------------------------------------------------- half-pel prediction

namespace {

// A 1x1 block at the origin with half-pel vector (hx, hy) is the
// interpolated sample at half-pel position (hx, hy).
std::uint8_t halfpel_sample(const h264::Plane& ref, int hx, int hy) {
  std::uint8_t v = 0;
  h264::motion_compensate_halfpel(ref, 0, 0, 1, {hx, hy}, &v);
  return v;
}

}  // namespace

TEST(HalfPel, IntegerPositionsMatchFullPel) {
  h264::Plane ref(32, 32);
  std::mt19937 rng(21);
  std::uniform_int_distribution<int> d(0, 255);
  for (auto& v : ref.data) v = static_cast<std::uint8_t>(d(rng));
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 32; ++x) {
      EXPECT_EQ(halfpel_sample(ref, 2 * x, 2 * y), ref.at(x, y));
    }
  }
}

TEST(HalfPel, HalfPositionIsSixTapAverage) {
  // On a horizontal ramp the 6-tap half-pel value is the midpoint.
  h264::Plane ref(32, 8);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 32; ++x) {
      ref.at(x, y) = static_cast<std::uint8_t>(4 * x);
    }
  }
  // Between x=10 (40) and x=11 (44): expect 42.
  EXPECT_EQ(halfpel_sample(ref, 21, 8), 42);
}

TEST(HalfPel, RefinementFindsSubpelShift) {
  // Reference: smooth gradient; current frame = ref shifted by 1 full pel;
  // the half-pel search must return an even (integer) vector matching it.
  h264::Plane ref(64, 64);
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) {
      ref.at(x, y) = h264::clamp_pixel(2 * x + y);
    }
  }
  h264::Plane cur(64, 64);
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) cur.at(x, y) = ref.at_clamped(x + 1, y);
  }
  int sad = 0;
  const auto mv = h264::motion_search_halfpel(cur, ref, 24, 24, 16, 3, &sad);
  EXPECT_EQ(mv.dx, 2);  // +1 full pel in half-pel units
  EXPECT_EQ(mv.dy, 0);
}

TEST(HalfPel, ImprovesInterQualityOnSmoothMotion) {
  h264::VideoConfig vc;
  vc.width = 64;
  vc.height = 64;
  vc.frames = 8;
  vc.motion = 1.5;
  vc.noise = 0.3;
  auto video = h264::generate_test_video(vc);
  auto encode_decode_psnr = [&](bool halfpel) {
    h264::EncoderConfig ec;
    ec.width = vc.width;
    ec.height = vc.height;
    ec.qp = 26;
    ec.gop_size = 8;
    ec.b_frames = 0;
    ec.halfpel_mc = halfpel;
    h264::Encoder enc(ec);
    h264::Decoder dec;
    auto display = h264::assemble_display_sequence(
        dec.decode_annexb(enc.encode_annexb(video)),
        static_cast<int>(video.size()));
    std::vector<h264::YuvFrame> frames;
    for (auto& p : display) frames.push_back(std::move(p.frame));
    return h264::sequence_psnr(video, frames);
  };
  // Half-pel refinement should never hurt and usually helps.
  EXPECT_GE(encode_decode_psnr(true), encode_decode_psnr(false) - 0.1);
}

// ---------------------------------------------------- directional intra 4x4

TEST(Intra4, DiagonalDownLeftFollowsDiagonalGradient) {
  // Scene whose intensity is constant along down-left diagonals
  // (v = x + y): DDL must predict it almost exactly, V/H cannot.
  h264::Plane recon(16, 16);
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) {
      recon.at(x, y) = static_cast<std::uint8_t>(10 * (x + y));
    }
  }
  std::uint8_t ddl[16], vert[16];
  h264::intra4_predict(recon, 8, 8, h264::Intra4Mode::kDiagonalDownLeft, ddl);
  h264::intra4_predict(recon, 8, 8, h264::Intra4Mode::kVertical, vert);
  int err_ddl = 0, err_v = 0;
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      const int truth = 10 * (8 + x + 8 + y);
      err_ddl += std::abs(static_cast<int>(ddl[y * 4 + x]) - truth);
      err_v += std::abs(static_cast<int>(vert[y * 4 + x]) - truth);
    }
  }
  EXPECT_LT(err_ddl, err_v / 2);
}

TEST(Intra4, DiagonalDownRightFollowsOppositeDiagonal) {
  // Constant along down-right diagonals (v = x - y).
  h264::Plane recon(16, 16);
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) {
      recon.at(x, y) = h264::clamp_pixel(128 + 10 * (x - y));
    }
  }
  std::uint8_t ddr[16], horiz[16];
  h264::intra4_predict(recon, 8, 8, h264::Intra4Mode::kDiagonalDownRight, ddr);
  h264::intra4_predict(recon, 8, 8, h264::Intra4Mode::kHorizontal, horiz);
  int err_ddr = 0, err_h = 0;
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      const int truth = 128 + 10 * ((8 + x) - (8 + y));
      err_ddr += std::abs(static_cast<int>(ddr[y * 4 + x]) - truth);
      err_h += std::abs(static_cast<int>(horiz[y * 4 + x]) - truth);
    }
  }
  EXPECT_LT(err_ddr, err_h / 2);
}

TEST(Intra4, ModeDecisionPicksTheMatchingDirection) {
  h264::Plane scene(16, 16);
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) {
      scene.at(x, y) = static_cast<std::uint8_t>(12 * (x + y));
    }
  }
  EXPECT_EQ(h264::choose_intra4_mode(scene, scene, 8, 8),
            h264::Intra4Mode::kDiagonalDownLeft);
  // Vertical stripes -> vertical mode.
  h264::Plane stripes(16, 16);
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) {
      stripes.at(x, y) = x % 2 ? 200 : 50;
    }
  }
  EXPECT_EQ(h264::choose_intra4_mode(stripes, stripes, 8, 8),
            h264::Intra4Mode::kVertical);
}

// ------------------------------------------------------------- intra 4x4

TEST(Intra4x4, RoundTripsOnDetailedContent) {
  // High-detail content triggers 4x4 partitions; the stream must still
  // round-trip at good quality.
  h264::VideoConfig vc;
  vc.width = 64;
  vc.height = 64;
  vc.frames = 2;
  vc.detail = 1.0;
  vc.noise = 3.0;
  auto video = h264::generate_test_video(vc);
  h264::EncoderConfig ec;
  ec.width = vc.width;
  ec.height = vc.height;
  ec.qp = 20;
  ec.gop_size = 1;
  ec.b_frames = 0;
  ec.intra4x4 = true;
  h264::Encoder enc(ec);
  h264::Decoder dec;
  auto display = h264::assemble_display_sequence(
      dec.decode_annexb(enc.encode_annexb(video)),
      static_cast<int>(video.size()));
  ASSERT_EQ(display.size(), video.size());
  for (std::size_t i = 0; i < video.size(); ++i) {
    EXPECT_GT(h264::psnr_luma(video[i], display[i].frame), 29.0);
  }
}

TEST(Intra4x4, NeverWorseThanSixteenOnly) {
  h264::VideoConfig vc;
  vc.width = 64;
  vc.height = 64;
  vc.frames = 3;
  vc.detail = 0.9;
  auto video = h264::generate_test_video(vc);
  auto psnr_with = [&](bool i4) {
    h264::EncoderConfig ec;
    ec.width = vc.width;
    ec.height = vc.height;
    ec.qp = 24;
    ec.gop_size = 1;
    ec.b_frames = 0;
    ec.intra4x4 = i4;
    h264::Encoder enc(ec);
    h264::Decoder dec;
    auto display = h264::assemble_display_sequence(
        dec.decode_annexb(enc.encode_annexb(video)),
        static_cast<int>(video.size()));
    std::vector<h264::YuvFrame> frames;
    for (auto& p : display) frames.push_back(std::move(p.frame));
    return h264::sequence_psnr(video, frames);
  };
  EXPECT_GE(psnr_with(true), psnr_with(false) - 0.1);
}

// ----------------------------------------------------------- rate control

TEST(RateControl, TracksTargetBitrate) {
  h264::VideoConfig vc;
  vc.width = 64;
  vc.height = 64;
  vc.frames = 48;
  vc.noise = 2.0;
  auto video = h264::generate_test_video(vc);

  h264::EncoderConfig ec;
  ec.width = vc.width;
  ec.height = vc.height;
  ec.qp = 28;
  ec.gop_size = 12;
  ec.b_frames = 2;
  for (double target_bps : {60000.0, 150000.0}) {
    h264::RateControlConfig rcc;
    rcc.target_bps = target_bps;
    rcc.fps = 25.0;
    rcc.initial_qp = 28;
    h264::RateController rc(rcc);
    h264::Encoder enc(ec);
    const auto pics = enc.encode_rate_controlled(video, rc);
    ASSERT_EQ(pics.size(), video.size());
    EXPECT_NEAR(rc.achieved_bps(), target_bps, 0.35 * target_bps)
        << "target " << target_bps;
  }
}

TEST(RateControl, RateControlledStreamDecodes) {
  h264::VideoConfig vc;
  vc.width = 64;
  vc.height = 64;
  vc.frames = 24;
  auto video = h264::generate_test_video(vc);
  h264::EncoderConfig ec;
  ec.width = vc.width;
  ec.height = vc.height;
  ec.qp = 28;
  ec.gop_size = 12;
  ec.b_frames = 2;
  h264::RateController rc({100000.0, 25.0, 28, 12, 48, 1.0});
  h264::Encoder enc(ec);
  auto units = enc.parameter_sets();
  for (auto& pic : enc.encode_rate_controlled(video, rc)) {
    units.push_back(std::move(pic.nal));
  }
  h264::Decoder dec;
  auto display = h264::assemble_display_sequence(
      dec.decode_annexb(h264::pack_annexb(units)),
      static_cast<int>(video.size()));
  ASSERT_EQ(display.size(), video.size());
  // Per-picture QP deltas must reconstruct correctly: quality reasonable,
  // nothing concealed.
  for (std::size_t i = 0; i < display.size(); ++i) {
    EXPECT_FALSE(display[i].concealed);
    EXPECT_GT(h264::psnr_luma(video[i], display[i].frame), 24.0);
  }
}

TEST(RateControl, LowerTargetMeansCoarserQp) {
  h264::VideoConfig vc;
  vc.width = 64;
  vc.height = 64;
  vc.frames = 36;
  vc.noise = 2.0;
  auto video = h264::generate_test_video(vc);
  h264::EncoderConfig ec;
  ec.width = vc.width;
  ec.height = vc.height;
  ec.qp = 28;
  ec.gop_size = 12;
  ec.b_frames = 0;
  auto final_qp = [&](double bps) {
    h264::RateController rc({bps, 25.0, 28, 12, 48, 1.0});
    h264::Encoder enc(ec);
    enc.encode_rate_controlled(video, rc);
    return rc.next_qp();
  };
  EXPECT_GT(final_qp(40000.0), final_qp(400000.0));
}

TEST(RateControl, RejectsBadConfig) {
  EXPECT_THROW(h264::RateController({-1.0, 25.0, 28, 12, 48, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(h264::RateController({1e5, 25.0, 28, 40, 20, 1.0}),
               std::invalid_argument);
}

// -------------------------------------------------------------------- SEI

TEST(Sei, SurvivesAnnexBAndDecoderIgnoresIt) {
  h264::VideoConfig vc;
  vc.width = 64;
  vc.height = 64;
  vc.frames = 3;
  auto video = h264::generate_test_video(vc);
  h264::EncoderConfig ec;
  ec.width = vc.width;
  ec.height = vc.height;
  ec.gop_size = 3;
  ec.b_frames = 0;
  h264::Encoder enc(ec);

  // A type-6 unit the decoder has no use for: one user-data-unregistered
  // message (payload type 5, a 16-byte UUID plus 7 data bytes) whose
  // data holds a 00 00 03 run, so the EBSP carries an emulation byte.
  std::vector<std::uint8_t> rbsp = {5, 23};
  for (int i = 0; i < 16; ++i) rbsp.push_back(static_cast<std::uint8_t>(0xA0 + i));
  rbsp.insert(rbsp.end(), {0x00, 0x00, 0x03, 0x09, 0x02, 0x00, 0x57});
  rbsp.push_back(0x80);  // rbsp_trailing_bits
  h264::NalUnit sei;
  sei.type = h264::NalType::kSei;
  sei.payload = h264::add_emulation_prevention(rbsp);
  ASSERT_GT(sei.payload.size(), rbsp.size());

  auto units = enc.parameter_sets();
  units.push_back(sei);
  for (auto& pic : enc.encode(video)) units.push_back(std::move(pic.nal));

  const auto stream = h264::pack_annexb(units);
  const auto parsed = h264::unpack_annexb(stream);
  int sei_found = 0;
  for (const auto& u : parsed) {
    if (u.type == h264::NalType::kSei) {
      ++sei_found;
      EXPECT_EQ(h264::remove_emulation_prevention(u.payload), rbsp);
    }
  }
  EXPECT_EQ(sei_found, 1);

  h264::Decoder dec;
  const auto pics = dec.decode_annexb(stream);
  EXPECT_EQ(pics.size(), 3u);  // SEI decoded past, not as a picture
}

TEST(Codec, ActivityCounterspopulated) {
  h264::VideoConfig vc;
  vc.width = 64;
  vc.height = 64;
  vc.frames = 6;
  auto video = h264::generate_test_video(vc);
  h264::EncoderConfig ec;
  ec.width = vc.width;
  ec.height = vc.height;
  ec.gop_size = 6;
  ec.b_frames = 2;
  h264::Encoder enc(ec);
  h264::Decoder dec;
  dec.decode_annexb(enc.encode_annexb(video));
  const auto& a = dec.activity();
  EXPECT_EQ(a.frames_decoded, 6u);
  EXPECT_GT(a.nal_units, 6u);  // slices + SPS/PPS
  EXPECT_GT(a.bits_parsed, 0u);
  EXPECT_GT(a.residual_blocks, 0u);
  EXPECT_GT(a.intra_mbs, 0u);
  EXPECT_GT(a.inter_mbs + a.skip_mbs, 0u);
}

// ------------------------------------------------------- decoder contracts

// Intra 4x4 reads samples the current picture has not reconstructed yet
// (the top-right neighbours of interior blocks, and through the clamp the
// block's own row in the top macroblock row), so those samples must be
// the same whether the decoder reconstructs into a new frame or into one
// handed back through recycle().
TEST(Decoder, RecycledFramesDecodeLikeFreshOnes) {
  for (const h264::golden::Case& c :
       {h264::golden::k64x64, h264::golden::kCif}) {
    h264::Encoder enc(h264::golden::encoder_config(c));
    const std::vector<std::uint8_t> stream =
        enc.encode_annexb(h264::golden::clip(c.width, c.height, c.frames));
    for (const bool deblock : {true, false}) {
      h264::Decoder fresh(h264::DecoderConfig{deblock, false});
      h264::Decoder recycling(h264::DecoderConfig{deblock, false});
      int pictures = 0, differing = 0;
      for (const h264::NalUnit& nal : h264::unpack_annexb(stream)) {
        auto a = fresh.decode_nal(nal);
        auto b = recycling.decode_nal(nal);
        ASSERT_EQ(a.has_value(), b.has_value());
        if (!a) continue;
        ++pictures;
        if (a->frame.y.data != b->frame.y.data ||
            a->frame.cb.data != b->frame.cb.data ||
            a->frame.cr.data != b->frame.cr.data) {
          ++differing;
        }
        recycling.recycle(std::move(b->frame));
      }
      EXPECT_EQ(pictures, c.frames);
      EXPECT_EQ(differing, 0) << c.width << "x" << c.height << " deblock "
                              << deblock;
    }
  }
}

#if defined(AFFECTSYS_METRICS) && AFFECTSYS_METRICS
// The decoder publishes its residual-block count once per slice; the
// registry total must still equal the activity counter, also for a slice
// that throws part-way through a macroblock.
TEST(Decoder, ResidualBlockCounterMatchesActivity) {
  const affectsys::obs::Counter& counter =
      affectsys::obs::Registry::global().counter(
          "h264.residual_blocks_decoded");
  const h264::golden::Case& c = h264::golden::k64x64;
  h264::Encoder enc(h264::golden::encoder_config(c));
  const std::vector<std::uint8_t> stream =
      enc.encode_annexb(h264::golden::clip(c.width, c.height, c.frames));

  {
    const std::uint64_t before = counter.value();
    h264::Decoder dec;
    EXPECT_EQ(dec.decode_annexb(stream).size(),
              static_cast<std::size_t>(c.frames));
    EXPECT_GT(dec.activity().residual_blocks, 0u);
    EXPECT_EQ(counter.value() - before, dec.activity().residual_blocks);
  }

  // Parameter sets, then the IDR slice cut at 40% of its payload.
  const std::vector<h264::NalUnit> units = h264::unpack_annexb(stream);
  ASSERT_GE(units.size(), 3u);
  ASSERT_EQ(units[2].type, h264::NalType::kSliceIdr);
  h264::NalUnit cut = units[2];
  cut.payload.resize(cut.payload.size() * 2 / 5);
  const std::uint64_t before = counter.value();
  h264::Decoder dec;
  dec.decode_nal(units[0]);
  dec.decode_nal(units[1]);
  EXPECT_THROW(dec.decode_nal(cut), h264::DecodeError);
  EXPECT_GT(dec.activity().residual_blocks, 0u);
  EXPECT_EQ(counter.value() - before, dec.activity().residual_blocks);
}
#endif
