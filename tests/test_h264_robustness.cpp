// Robustness and failure-injection tests: the decoder must survive
// truncated, corrupted and Input-Selector-edited bitstreams with clean
// error signalling (BitstreamError), never undefined behaviour — exactly
// the regime the affect-driven NAL deletion puts it in.
#include <gtest/gtest.h>

#include <random>

#include "h264/bitstream.hpp"
#include "h264/decoder.hpp"
#include "h264/encoder.hpp"
#include "h264/quality.hpp"
#include "h264/testvideo.hpp"

namespace h264 = affectsys::h264;

namespace {

std::vector<std::uint8_t> reference_stream() {
  h264::VideoConfig vc{64, 64, 12, 1.0, 0.5, 1.0, 5};
  const auto video = h264::generate_test_video(vc);
  h264::EncoderConfig ec{64, 64, 26, 12, 2, 4};
  h264::Encoder enc(ec);
  return enc.encode_annexb(video);
}

}  // namespace

TEST(Robustness, TruncatedStreamsThrowOrDecodePartially) {
  const auto stream = reference_stream();
  for (double frac : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const auto cut = static_cast<std::size_t>(frac * static_cast<double>(stream.size()));
    std::vector<std::uint8_t> truncated(stream.begin(),
                                        stream.begin() + static_cast<long>(cut));
    h264::Decoder dec;
    try {
      const auto pics = dec.decode_annexb(truncated);
      EXPECT_LE(pics.size(), 12u);
    } catch (const h264::BitstreamError&) {
      // Acceptable: clean error on a mid-NAL cut.
    }
  }
}

TEST(Robustness, SliceBeforeParameterSetsThrows) {
  const auto stream = reference_stream();
  auto units = h264::unpack_annexb(stream);
  // Drop SPS/PPS.
  std::vector<h264::NalUnit> no_ps;
  for (auto& u : units) {
    if (u.type != h264::NalType::kSps && u.type != h264::NalType::kPps) {
      no_ps.push_back(std::move(u));
    }
  }
  h264::Decoder dec;
  EXPECT_THROW(dec.decode_annexb(h264::pack_annexb(no_ps)),
               h264::BitstreamError);
}

TEST(Robustness, BitFlipFuzzNeverCrashes) {
  const auto stream = reference_stream();
  std::mt19937 rng(1234);
  std::uniform_int_distribution<std::size_t> pos_d(0, stream.size() - 1);
  std::uniform_int_distribution<int> bit_d(0, 7);
  int clean = 0, threw = 0;
  for (int iter = 0; iter < 200; ++iter) {
    auto corrupted = stream;
    // Flip 1-4 random bits.
    const int flips = 1 + iter % 4;
    for (int k = 0; k < flips; ++k) {
      corrupted[pos_d(rng)] ^= static_cast<std::uint8_t>(1 << bit_d(rng));
    }
    h264::Decoder dec;
    try {
      dec.decode_annexb(corrupted);
      ++clean;
    } catch (const h264::BitstreamError&) {
      ++threw;
    }
    // Any other exception type or a crash fails the test by escaping.
  }
  EXPECT_EQ(clean + threw, 200);
  EXPECT_GT(threw, 0) << "expected at least some corruptions to be detected";
}

TEST(Robustness, ByteDeletionFuzzNeverCrashes) {
  const auto stream = reference_stream();
  std::mt19937 rng(77);
  std::uniform_int_distribution<std::size_t> pos_d(0, stream.size() - 64);
  std::uniform_int_distribution<std::size_t> len_d(1, 48);
  for (int iter = 0; iter < 100; ++iter) {
    auto mutated = stream;
    const std::size_t pos = pos_d(rng);
    const std::size_t len = len_d(rng);
    mutated.erase(mutated.begin() + static_cast<long>(pos),
                  mutated.begin() + static_cast<long>(pos + len));
    h264::Decoder dec;
    try {
      dec.decode_annexb(mutated);
    } catch (const h264::BitstreamError&) {
    }
  }
  SUCCEED();
}

TEST(Robustness, EmptyAndGarbageStreams) {
  h264::Decoder dec;
  EXPECT_TRUE(dec.decode_annexb({}).empty());
  const std::vector<std::uint8_t> garbage = {0xDE, 0xAD, 0xBE, 0xEF, 0x42};
  EXPECT_TRUE(dec.decode_annexb(garbage).empty());  // no start codes
}

TEST(Robustness, DecoderRecoversAtNextIdrAfterLostGop) {
  // Lose an entire middle GOP; the decoder must resume cleanly at the
  // next IDR (this is why the Input Selector never touches I slices).
  h264::VideoConfig vc{64, 64, 24, 1.0, 0.5, 1.0, 6};
  const auto video = h264::generate_test_video(vc);
  h264::EncoderConfig ec{64, 64, 26, 8, 0, 4};
  h264::Encoder enc(ec);
  auto units = enc.parameter_sets();
  auto pics = enc.encode(video);
  for (std::size_t i = 0; i < pics.size(); ++i) {
    if (pics[i].poc >= 8 && pics[i].poc < 16) continue;  // drop GOP 2
    units.push_back(std::move(pics[i].nal));
  }
  h264::Decoder dec;
  const auto display = h264::assemble_display_sequence(
      dec.decode_annexb(h264::pack_annexb(units)),
      static_cast<int>(video.size()));
  ASSERT_EQ(display.size(), video.size());
  // Third GOP (poc 16..23) decodes at full quality again.
  for (std::size_t i = 16; i < 24; ++i) {
    EXPECT_FALSE(display[i].concealed) << "frame " << i;
    EXPECT_GT(h264::psnr_luma(video[i], display[i].frame), 27.0)
        << "frame " << i;
  }
}

// --------------------------------------------------------------- quality

TEST(Quality, IdenticalFramesGivePeakPsnrAndUnitSsim) {
  h264::VideoConfig vc{32, 32, 1, 1.0, 0.5, 1.0, 7};
  const auto v = h264::generate_test_video(vc);
  EXPECT_EQ(h264::psnr_luma(v[0], v[0]), 100.0);
  EXPECT_NEAR(h264::ssim_luma(v[0], v[0]), 1.0, 1e-12);
}

TEST(Quality, PsnrDropsWithNoise) {
  h264::VideoConfig vc{32, 32, 1, 1.0, 0.5, 0.0, 8};
  const auto clean = h264::generate_test_video(vc);
  h264::YuvFrame noisy = clean[0];
  std::mt19937 rng(9);
  std::normal_distribution<double> d(0.0, 5.0);
  for (auto& p : noisy.y.data) {
    p = h264::clamp_pixel(static_cast<int>(p + d(rng)));
  }
  const double psnr = h264::psnr_luma(clean[0], noisy);
  EXPECT_LT(psnr, 45.0);
  EXPECT_GT(psnr, 25.0);
  EXPECT_LT(h264::ssim_luma(clean[0], noisy), 1.0);
}

TEST(Quality, MismatchedSizesThrow) {
  h264::YuvFrame a(32, 32), b(64, 64);
  EXPECT_THROW(h264::psnr_luma(a, b), std::invalid_argument);
  EXPECT_THROW(h264::ssim_luma(a, b), std::invalid_argument);
  EXPECT_THROW(h264::sequence_psnr({}, {}), std::invalid_argument);
}

// --------------------------------------------------------------- testvideo

TEST(TestVideo, GeneratesRequestedGeometry) {
  h264::VideoConfig vc{48, 32, 5, 1.0, 0.5, 1.0, 10};
  const auto v = h264::generate_test_video(vc);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_EQ(v[0].width(), 48);
  EXPECT_EQ(v[0].height(), 32);
  EXPECT_EQ(v[0].cb.width, 24);
}

TEST(TestVideo, MotionCreatesInterFrameDifference) {
  h264::VideoConfig vc{64, 64, 8, 2.0, 0.5, 0.0, 11};
  const auto moving = h264::generate_test_video(vc);
  const double psnr_moving = h264::psnr_luma(moving[0], moving[7]);
  const auto still = h264::generate_static_video(vc);
  const double psnr_still = h264::psnr_luma(still[0], still[7]);
  EXPECT_LT(psnr_moving, psnr_still);
}

TEST(TestVideo, MixedClipQuietTailIsNearStatic) {
  h264::VideoConfig vc{64, 64, 20, 1.5, 0.6, 2.0, 12};
  const auto v = h264::generate_mixed_video(vc, 0.5);
  // Busy half: consecutive frames differ a lot; quiet half: barely.
  const double busy_psnr = h264::psnr_luma(v[2], v[3]);
  const double quiet_psnr = h264::psnr_luma(v[16], v[17]);
  EXPECT_GT(quiet_psnr, busy_psnr + 6.0);
}

TEST(TestVideo, RejectsBadDimensions) {
  EXPECT_THROW(h264::YuvFrame(60, 64), std::invalid_argument);
  EXPECT_THROW(h264::YuvFrame(0, 0), std::invalid_argument);
}
