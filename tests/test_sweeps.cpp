// Parameterized property sweeps across module boundaries: determinism,
// quantization behaviour over model kinds, codec round trips over QP, and
// selector arithmetic over (S_th, f) grids.
#include <gtest/gtest.h>

#include <random>

#include "adaptive/input_selector.hpp"
#include "h264/decoder.hpp"
#include "h264/encoder.hpp"
#include "h264/quality.hpp"
#include "h264/testvideo.hpp"
#include "nn/quantize.hpp"
#include "nn/trainer.hpp"

namespace nn = affectsys::nn;
namespace h264 = affectsys::h264;
namespace adaptive = affectsys::adaptive;

// ------------------------------------------------- NN determinism & kinds

class ModelKindSweep : public ::testing::TestWithParam<nn::ModelKind> {};

TEST_P(ModelKindSweep, TrainingIsDeterministicForFixedSeeds) {
  auto build_and_train = [&] {
    nn::Dataset data;
    std::mt19937 drng(7);
    std::normal_distribution<float> noise(0.0f, 0.2f);
    for (int n = 0; n < 24; ++n) {
      nn::Sample s;
      s.label = static_cast<std::size_t>(n % 2);
      s.features = nn::Matrix(8, 4);
      for (auto& v : s.features.flat()) {
        v = noise(drng) + (s.label ? 0.5f : -0.5f);
      }
      data.push_back(std::move(s));
    }
    std::mt19937 rng(3);
    nn::ClassifierSpec spec{4, 8, 2};
    nn::Sequential model = nn::build_model(GetParam(), spec, rng);
    nn::TrainConfig tc;
    tc.epochs = 3;
    tc.seed = 3;
    return nn::train(model, data, tc);
  };
  EXPECT_EQ(build_and_train(), build_and_train());
}

TEST_P(ModelKindSweep, QuantizationShrinksAndPreservesOutputShape) {
  std::mt19937 rng(11);
  nn::ClassifierSpec spec{6, 16, 5};
  nn::Sequential model = nn::build_model(GetParam(), spec, rng);
  nn::Matrix input(16, 6);
  std::normal_distribution<float> d(0.0f, 1.0f);
  for (auto& v : input.flat()) v = d(rng);
  const nn::Matrix before = model.forward(input);
  const std::size_t bytes = nn::quantize_model_inplace(model);
  const nn::Matrix after = model.forward(input);
  ASSERT_TRUE(before.same_shape(after));
  EXPECT_LT(bytes, model.weight_bytes(4) / 3);
  // Quantized outputs stay close to float outputs.
  float worst = 0.0f;
  float scale = 0.0f;
  for (std::size_t i = 0; i < before.size(); ++i) {
    worst = std::max(worst, std::abs(before.flat()[i] - after.flat()[i]));
    scale = std::max(scale, std::abs(before.flat()[i]));
  }
  EXPECT_LT(worst, 0.25f * std::max(scale, 1.0f));
}

INSTANTIATE_TEST_SUITE_P(Kinds, ModelKindSweep,
                         ::testing::Values(nn::ModelKind::kMlp,
                                           nn::ModelKind::kCnn,
                                           nn::ModelKind::kLstm));

// -------------------------------------------------------- codec QP sweep

class QpRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(QpRoundTrip, QualityDegradesGracefullyWithQp) {
  const int qp = GetParam();
  h264::VideoConfig vc{64, 64, 6, 1.0, 0.5, 1.0, 9};
  const auto video = h264::generate_test_video(vc);
  h264::EncoderConfig ec{64, 64, qp, 6, 1, 4, true, true};
  h264::Encoder enc(ec);
  h264::Decoder dec;
  auto display = h264::assemble_display_sequence(
      dec.decode_annexb(enc.encode_annexb(video)),
      static_cast<int>(video.size()));
  ASSERT_EQ(display.size(), video.size());
  std::vector<h264::YuvFrame> frames;
  for (auto& p : display) frames.push_back(std::move(p.frame));
  const double psnr = h264::sequence_psnr(video, frames);
  // Loose per-QP floors: ~ -0.5 dB/QP from a 50 dB anchor.
  EXPECT_GT(psnr, 50.0 - 0.7 * qp) << "qp " << qp;
}

INSTANTIATE_TEST_SUITE_P(Qps, QpRoundTrip,
                         ::testing::Values(12, 18, 24, 30, 36, 42));

// ------------------------------------------------- selector (S_th, f) grid

class SelectorGrid
    : public ::testing::TestWithParam<std::tuple<std::size_t, unsigned>> {};

TEST_P(SelectorGrid, DeletionCountFollowsCeilFormula) {
  const auto [s_th, f] = GetParam();
  h264::VideoConfig vc{64, 64, 18, 1.2, 0.6, 2.5, 13};
  const auto video = h264::generate_mixed_video(vc, 0.4);
  h264::EncoderConfig ec{64, 64, 24, 9, 2, 4, true, true};
  h264::Encoder enc(ec);
  auto units = enc.parameter_sets();
  for (auto& pic : enc.encode(video)) units.push_back(std::move(pic.nal));

  // Count candidates independently.
  std::size_t m = 0;
  for (const auto& nal : units) {
    const auto type = h264::peek_slice_type(nal);
    if (type && *type != h264::SliceType::kI && nal.byte_size() <= s_th) ++m;
  }
  adaptive::InputSelector sel({s_th, f});
  sel.filter(units);
  EXPECT_EQ(sel.stats().candidates, m);
  EXPECT_EQ(sel.stats().deleted, (m + f - 1) / f);
  // The surviving stream still decodes.
  adaptive::InputSelector sel2({s_th, f});
  h264::Decoder dec;
  EXPECT_NO_THROW(dec.decode_annexb(sel2.filter_annexb(h264::pack_annexb(units))));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SelectorGrid,
    ::testing::Combine(::testing::Values<std::size_t>(60, 140, 400),
                       ::testing::Values<unsigned>(1, 2, 3)));

// ------------------------------------------------ encoder config validity

TEST(EncoderConfigSweep, InvalidConfigsRejected) {
  h264::EncoderConfig bad;
  bad.width = 60;  // not a multiple of 16
  EXPECT_THROW(h264::Encoder{bad}, std::invalid_argument);
  bad = {};
  bad.qp = 52;
  EXPECT_THROW(h264::Encoder{bad}, std::invalid_argument);
  bad = {};
  bad.b_frames = 12;
  bad.gop_size = 12;
  EXPECT_THROW(h264::Encoder{bad}, std::invalid_argument);
  bad = {};
  bad.gop_size = 0;
  EXPECT_THROW(h264::Encoder{bad}, std::invalid_argument);
}
