// Kernel-optimization suite (ctest label "kernels", run by
// tools/run_verify.sh kernels): proves the optimized kernels against
// the pre-optimization references, kept callable or held here as
// oracles — bit-identity where the discipline demands it (feature
// workspace path, lane deblocker, FFT butterflies, motion
// compensation, the codec's golden digests), bounded drift where a
// numerically equivalent algorithm replaced the old one (real-input
// FFT, blocked GEMM).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstring>
#include <numbers>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

#include "affect/features.hpp"
#include "affect/speech_synth.hpp"
#include "h264/deblock.hpp"
#include "h264/inter.hpp"
#include "h264_deblock_oracle.hpp"
#include "h264_golden_clip.hpp"
#include "nn/matrix.hpp"
#include "signal/features.hpp"
#include "signal/fft.hpp"
#include "signal/mel.hpp"
#include "signal/window.hpp"

using namespace affectsys;

namespace {

std::vector<double> make_signal(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> noise(-0.05, 0.05);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    x[i] = std::sin(0.031 * t) + 0.4 * std::sin(0.173 * t + 0.5) +
           0.2 * std::sin(0.011 * t * t / static_cast<double>(n)) + noise(rng);
  }
  return x;
}

/// The butterfly loop FftPlan ran before its hot loops moved to explicit
/// real arithmetic: std::complex operator* (with its Annex G NaN
/// fallback) and a per-butterfly conj select, over bit-reversed `data`
/// and the plan's stage-major twiddles.  This loop's rounding depends on
/// how it is compiled, so the attributes pin it to FftPlan::execute's old
/// form: noipa keeps it one out-of-line function with a run-time
/// `inverse` (inlined or cloned per direction, the compiler may fuse the
/// other product of the complex multiply into its FMA), and TSan
/// instrumentation, which also changes its rounding, is left out.
[[gnu::noipa, gnu::no_sanitize("thread")]] void oracle_butterflies(
    std::complex<double>* data, std::size_t n,
    const std::complex<double>* w_stage, bool inverse) {
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const std::complex<double> w =
            inverse ? std::conj(w_stage[k]) : w_stage[k];
        const std::complex<double> u = data[i + k];
        const std::complex<double> v = data[i + k + half] * w;
        data[i + k] = u + v;
        data[i + k + half] = u - v;
      }
    }
    w_stage += half;
  }
}

/// Oracle transform: the same bit-reversal and std::polar twiddles as
/// the plan, so any difference from FftPlan is the butterfly loop.
void oracle_fft(std::vector<std::complex<double>>& data, bool inverse) {
  const std::size_t n = data.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
  std::vector<std::complex<double>> twiddle;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    for (std::size_t k = 0; k < len / 2; ++k) {
      twiddle.push_back(std::polar(1.0, -2.0 * std::numbers::pi *
                                            static_cast<double>(k) /
                                            static_cast<double>(len)));
    }
  }
  oracle_butterflies(data.data(), n, twiddle.data(), inverse);
}

}  // namespace

// --- Complex FFT ----------------------------------------------------------

// The plan's real-arithmetic butterflies spell each product the way the
// compiler lowers the complex multiply, so on finite input they equal
// the std::complex loop exactly, forward and inverse, at every size.
// Beside a dense vector, the inputs include the shapes the served path
// feeds the plan: a zero-padded frame (the first 40% nonzero, the rest
// exact zeros), an all-zero buffer, and -0.0 entries, whose sign a
// reordered or skipped multiply by a 1 or 0 twiddle part would flip.
TEST(FftPlan, ButterfliesEqualComplexOracleExactly) {
  std::mt19937 rng(2024);
  std::uniform_real_distribution<double> val(-1.0, 1.0);
  for (std::size_t n = 1; n <= 4096; n <<= 1) {
    std::vector<std::complex<double>> dense(n);
    for (auto& c : dense) c = {val(rng), val(rng)};
    std::vector<std::complex<double>> zero_tailed(n);
    for (std::size_t i = 0; i < n * 2 / 5; ++i) {
      zero_tailed[i] = {val(rng), val(rng)};
    }
    const std::vector<std::complex<double>> all_zero(n);
    std::vector<std::complex<double>> neg_zero(n);
    for (std::size_t i = 0; i < n; ++i) {
      neg_zero[i] = {i % 3 == 0 ? -0.0 : val(rng),
                     i % 2 == 0 ? -0.0 : val(rng)};
    }
    const std::vector<std::complex<double>> all_neg_zero(n, {-0.0, -0.0});
    const signal::FftPlan plan(n);
    const struct {
      const char* name;
      const std::vector<std::complex<double>>* x;
    } shapes[] = {{"dense", &dense},
                  {"zero-tailed", &zero_tailed},
                  {"all-zero", &all_zero},
                  {"negative-zero", &neg_zero},
                  {"all-negative-zero", &all_neg_zero}};
    for (const auto& shape : shapes) {
      for (const bool inverse : {false, true}) {
        std::vector<std::complex<double>> got = *shape.x;
        std::vector<std::complex<double>> want = *shape.x;
        plan.execute(got, inverse);
        oracle_fft(want, inverse);
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              n * sizeof(std::complex<double>)),
                  0)
            << shape.name << " n=" << n << " inverse=" << inverse;
      }
    }
  }
}

// --- Real-input FFT -------------------------------------------------------

TEST(RfftPlan, MatchesComplexFftAcrossSizes) {
  for (const std::size_t n : {std::size_t{64}, std::size_t{256},
                              std::size_t{1024}, std::size_t{4096}}) {
    const std::vector<double> x = make_signal(n, 7 + static_cast<unsigned>(n));
    const std::vector<std::complex<double>> full = signal::fft_real(x);
    signal::RfftPlan plan(n);
    std::vector<std::complex<double>> onesided(plan.bins());
    std::vector<std::complex<double>> work(plan.work_size());
    plan.execute(x, onesided, work);
    double max_mag = 0.0;
    for (const auto& c : full) max_mag = std::max(max_mag, std::abs(c));
    for (std::size_t k = 0; k <= n / 2; ++k) {
      EXPECT_NEAR(onesided[k].real(), full[k].real(), 1e-9 * max_mag)
          << "n=" << n << " k=" << k;
      EXPECT_NEAR(onesided[k].imag(), full[k].imag(), 1e-9 * max_mag)
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(RfftPlan, ZeroPadsNonPowerOfTwoInputs) {
  // 400-sample frame through a 512-point plan: the plan pads internally,
  // the complex path pads explicitly; spectra must agree.
  const std::vector<double> x = make_signal(400, 11);
  signal::RfftPlan plan(512);
  std::vector<std::complex<double>> onesided(plan.bins());
  std::vector<std::complex<double>> work(plan.work_size());
  plan.execute(x, onesided, work);

  std::vector<std::complex<double>> padded(512);
  signal::fft_real(x, padded);
  double max_mag = 0.0;
  for (const auto& c : padded) max_mag = std::max(max_mag, std::abs(c));
  for (std::size_t k = 0; k <= 256; ++k) {
    EXPECT_NEAR(onesided[k].real(), padded[k].real(), 1e-9 * max_mag);
    EXPECT_NEAR(onesided[k].imag(), padded[k].imag(), 1e-9 * max_mag);
  }
}

TEST(RfftPlan, InverseRoundTripsAndSupportsPrefixOutput) {
  constexpr std::size_t kN = 1024;
  const std::vector<double> x = make_signal(kN, 13);
  signal::RfftPlan plan(kN);
  std::vector<std::complex<double>> spec(plan.bins());
  std::vector<std::complex<double>> work(plan.work_size());
  plan.execute(x, spec, work);

  std::vector<double> back(kN);
  plan.inverse(spec, back, work);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_NEAR(back[i], x[i], 1e-9) << "i=" << i;
  }

  std::vector<double> prefix(10);
  plan.inverse(spec, prefix, work);
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    EXPECT_DOUBLE_EQ(prefix[i], back[i]) << "i=" << i;
  }
}

TEST(RfftPlan, RejectsInvalidSizes) {
  EXPECT_THROW(signal::RfftPlan(0), std::invalid_argument);
  EXPECT_THROW(signal::RfftPlan(1), std::invalid_argument);
  EXPECT_THROW(signal::RfftPlan(96), std::invalid_argument);
}

TEST(Spectra, SpanAndAllocatingPathsAreByteIdentical) {
  const std::vector<double> x = make_signal(400, 17);
  constexpr std::size_t kFft = 512;
  const std::vector<double> alloc_ps = signal::power_spectrum(x, kFft);
  std::vector<double> span_ps(kFft / 2 + 1);
  std::vector<std::complex<double>> work(kFft + 1);
  signal::power_spectrum(x, kFft, span_ps, work);
  for (std::size_t k = 0; k < alloc_ps.size(); ++k) {
    EXPECT_EQ(alloc_ps[k], span_ps[k]) << "k=" << k;  // exact: same kernel
  }

  const std::vector<double> ref = signal::power_spectrum_ref(x, kFft);
  double max_p = 0.0;
  for (double p : ref) max_p = std::max(max_p, p);
  for (std::size_t k = 0; k < ref.size(); ++k) {
    EXPECT_NEAR(span_ps[k], ref[k], 1e-9 * max_p) << "k=" << k;
  }
}

TEST(Autocorrelation, RealPathTracksComplexReference) {
  const std::vector<double> x = make_signal(400, 19);
  const std::vector<double> fast = signal::autocorrelation(x);
  const std::vector<double> ref = signal::autocorrelation_ref(x);
  ASSERT_EQ(fast.size(), ref.size());
  for (std::size_t k = 0; k < fast.size(); ++k) {
    EXPECT_NEAR(fast[k], ref[k], 1e-9 * std::abs(ref[0])) << "k=" << k;
  }

  // Pitch on a strongly periodic signal: both estimators converge on
  // the same frequency.
  std::vector<double> tone(800);
  for (std::size_t i = 0; i < tone.size(); ++i) {
    tone[i] = std::sin(2.0 * std::numbers::pi * 200.0 *
                       static_cast<double>(i) / 16000.0);
  }
  const auto fast_pitch = signal::estimate_pitch(tone, 16000.0, 60.0, 400.0);
  const auto ref_pitch = signal::estimate_pitch_ref(tone, 16000.0, 60.0,
                                                    400.0);
  ASSERT_TRUE(fast_pitch.has_value());
  ASSERT_TRUE(ref_pitch.has_value());
  EXPECT_NEAR(*fast_pitch, *ref_pitch, 1e-6);
  EXPECT_NEAR(*fast_pitch, 200.0, 2.0);
}

// --- Feature pipeline -----------------------------------------------------

TEST(FeaturePipeline, WorkspacePathIsByteIdenticalToAllocatingPath) {
  affect::FeatureConfig fc;
  const affect::FeatureExtractor fx(fc);
  affect::SpeechSynthesizer synth(11);
  affect::FeatureWorkspace ws;  // deliberately reused across windows
  for (int u = 0; u < 3; ++u) {
    const auto utt = synth.synthesize(
        u % 2 ? affect::Emotion::kCalm : affect::Emotion::kAngry, 30 + u, 1.0,
        16000.0, 0.1);
    const nn::Matrix fresh = fx.extract(utt.samples);
    const nn::Matrix& reused = fx.extract_into(utt.samples, ws);
    ASSERT_EQ(fresh.rows(), reused.rows());
    ASSERT_EQ(fresh.cols(), reused.cols());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      ASSERT_EQ(fresh.flat()[i], reused.flat()[i]) << "window " << u
                                                   << " elem " << i;
    }
  }
}

TEST(FeaturePipeline, OptimizedPathTracksPrePrReference) {
  affect::FeatureConfig fc;
  const affect::FeatureExtractor fx(fc);
  affect::SpeechSynthesizer synth(23);
  const auto utt =
      synth.synthesize(affect::Emotion::kAngry, 42, 1.0, 16000.0, 0.1);
  const nn::Matrix opt = fx.extract(utt.samples);
  const nn::Matrix ref = fx.extract_ref(utt.samples);
  ASSERT_EQ(opt.rows(), ref.rows());
  ASSERT_EQ(opt.cols(), ref.cols());
  for (std::size_t i = 0; i < opt.size(); ++i) {
    EXPECT_NEAR(opt.flat()[i], ref.flat()[i], 1e-4) << "elem " << i;
  }
}

TEST(FeaturePipeline, MfccWorkspaceFrameTracksReference) {
  signal::MfccConfig mc;
  const signal::MfccExtractor mfcc(mc);
  const std::vector<double> frame = make_signal(mc.frame_len, 29);
  const std::vector<double> opt = mfcc.extract_frame(frame);
  const std::vector<double> ref = mfcc.extract_frame_ref(frame);
  ASSERT_EQ(opt.size(), ref.size());
  for (std::size_t k = 0; k < opt.size(); ++k) {
    EXPECT_NEAR(opt[k], ref[k], 1e-5) << "k=" << k;
  }
}

namespace {

/// Pitch and magnitude from the two-transform path the row step used to
/// run: pitch from estimate_pitch()'s own autocorrelation, and magnitude
/// as the mean of a separate fft_size-point magnitude spectrum (sqrt of
/// each bin's norm, summed in bin order).
signal::PitchMagnitude two_transform_pitch_magnitude(
    std::span<const double> frame, const signal::MfccConfig& mc) {
  signal::PitchMagnitude pm;
  pm.pitch = signal::estimate_pitch(frame, mc.sample_rate, 60.0, 400.0, 0.3);
  const std::vector<double> mag =
      signal::magnitude_spectrum(frame, mc.fft_size);
  double acc = 0.0;
  for (const double m : mag) acc += m;
  pm.magnitude = acc / static_cast<double>(mag.size());
  return pm;
}

/// compute_rows()'s row for `frame` rebuilt around the two-transform
/// pitch and magnitude.
std::vector<float> two_transform_row(const signal::MfccExtractor& mfcc,
                                     std::span<const double> frame,
                                     std::size_t dim) {
  const signal::MfccConfig& mc = mfcc.config();
  std::vector<double> coeffs(std::min(mc.num_coeffs, mc.num_filters));
  signal::MfccWorkspace ws;
  mfcc.extract_frame(frame, coeffs, ws);
  std::vector<float> row(dim, 0.0f);
  std::size_t c = 0;
  for (; c < coeffs.size(); ++c) row[c] = static_cast<float>(coeffs[c]);
  row[c++] = static_cast<float>(signal::zero_crossing_rate(frame));
  row[c++] = static_cast<float>(signal::rms(frame));
  const signal::PitchMagnitude pm = two_transform_pitch_magnitude(frame, mc);
  row[c++] = static_cast<float>(pm.pitch.value_or(0.0) / 400.0);
  row[c++] = static_cast<float>(pm.magnitude);
  return row;
}

/// The pitch (0 when unvoiced; a voiced pitch is positive) and the
/// magnitude as two doubles, for memcmp.
std::array<double, 2> pitch_magnitude_bits(const signal::PitchMagnitude& pm) {
  return {pm.pitch.value_or(0.0), pm.magnitude};
}

/// The row-step corpus: synthesized speech in every emotion from six
/// speakers, then the edge cases of the magnitude read: noise across six
/// decades of amplitude, digital silence, sparse impulses, gated noise,
/// all -0.0 and all 1e-300 (whose squares underflow).
std::vector<std::vector<double>> row_corpus() {
  std::vector<std::vector<double>> corpus;
  affect::SpeechSynthesizer synth(41);
  for (std::size_t e = 0; e < affect::kNumEmotions; ++e) {
    for (int speaker = 0; speaker < 6; ++speaker) {
      corpus.push_back(synth
                           .synthesize(static_cast<affect::Emotion>(e),
                                       speaker, 0.5, 16000.0, 0.1)
                           .samples);
    }
  }
  constexpr std::size_t kLen = 4000;
  std::mt19937 rng(43);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  for (int decade = -6; decade <= 0; ++decade) {
    const double amp = std::pow(10.0, decade);
    std::vector<double> x(kLen);
    for (double& v : x) v = amp * unit(rng);
    corpus.push_back(std::move(x));
  }
  corpus.emplace_back(kLen, 0.0);
  std::vector<double> impulses(kLen, 0.0);
  for (std::size_t i = 37; i < kLen; i += 211) impulses[i] = 1.0;
  corpus.push_back(std::move(impulses));
  std::vector<double> gated(kLen, 0.0);
  for (std::size_t i = 0; i < kLen; ++i) {
    if (i % 1280 < 480) gated[i] = 0.3 * unit(rng);
  }
  corpus.push_back(std::move(gated));
  corpus.emplace_back(kLen, -0.0);
  corpus.emplace_back(kLen, 1e-300);
  return corpus;
}

}  // namespace

// The row step reads pitch and magnitude off one transform: the
// magnitude column comes from the pitch autocorrelation's bins at stride
// next_pow2(2 * frame_len) / fft_size (2 by default, 1 when fft_size is
// the pitch transform's size).  Every row equals the two-transform path
// byte for byte, and so do the pitch and magnitude doubles before the
// row rounds them to float.
TEST(FeaturePipeline, SharedTransformRowsEqualTwoTransformPath) {
  const std::vector<std::vector<double>> corpus = row_corpus();
  for (const std::size_t fft_size : {std::size_t{512}, std::size_t{1024}}) {
    affect::FeatureConfig fc;
    fc.mfcc.fft_size = fft_size;
    fc.timesteps = 128;
    const signal::MfccConfig& mc = fc.mfcc;
    const affect::FeatureExtractor fx(fc);
    const signal::MfccExtractor mfcc(mc);
    nn::Matrix raw(fc.timesteps, fx.feature_dim());
    std::vector<double> frame(mc.frame_len), r(mc.frame_len);
    std::vector<std::complex<double>> work(
        signal::next_pow2(2 * mc.frame_len) + 1);
    std::size_t rows_checked = 0, mismatches = 0;
    for (std::size_t u = 0; u < corpus.size() && mismatches < 5; ++u) {
      const std::vector<double>& x = corpus[u];
      const std::size_t rows = fx.window_rows(x.size());
      fx.compute_rows(x, 0, rows, raw);
      for (std::size_t t = 0; t < rows && mismatches < 5; ++t) {
        signal::copy_frame(x, t, mc.hop, frame);
        const std::vector<float> want =
            two_transform_row(mfcc, frame, fx.feature_dim());
        const auto shared = pitch_magnitude_bits(signal::pitch_and_magnitude(
            frame, mc.sample_rate, 60.0, 400.0, 0.3, fft_size, r, work));
        const auto split =
            pitch_magnitude_bits(two_transform_pitch_magnitude(frame, mc));
        ++rows_checked;
        if (std::memcmp(raw.row(t).data(), want.data(),
                        want.size() * sizeof(float)) != 0 ||
            std::memcmp(shared.data(), split.data(), sizeof(shared)) != 0) {
          ADD_FAILURE() << "fft_size=" << fft_size << " signal " << u
                        << " row " << t << ": pitch " << shared[0] << " vs "
                        << split[0] << ", magnitude " << shared[1] << " vs "
                        << split[1];
          ++mismatches;
        }
      }
    }
    EXPECT_GT(rows_checked, 4000u);
  }
}

TEST(FeaturePipeline, RejectsFftSizeTheSharedTransformCannotServe) {
  affect::FeatureConfig fc;
  fc.mfcc.fft_size = 2048;  // >= frame_len, but pitch transforms 1,024
  EXPECT_THROW((void)affect::FeatureExtractor(fc), std::invalid_argument);

  const std::vector<double> frame = make_signal(400, 47);
  std::vector<double> r(400);
  std::vector<std::complex<double>> work(1025);
  for (const std::size_t bad : {std::size_t{256}, std::size_t{2048}}) {
    EXPECT_THROW((void)signal::pitch_and_magnitude(frame, 16000.0, 60.0,
                                                   400.0, 0.3, bad, r, work),
                 std::invalid_argument)
        << "fft_size=" << bad;
  }
}

TEST(FeaturePipeline, FrameCountMatchesFrameSignal) {
  for (const std::size_t size : {std::size_t{0}, std::size_t{1},
                                 std::size_t{399}, std::size_t{400},
                                 std::size_t{401}, std::size_t{560},
                                 std::size_t{561}, std::size_t{1600}}) {
    for (const std::size_t hop : {std::size_t{160}, std::size_t{400},
                                  std::size_t{500}}) {
      const std::vector<double> x = make_signal(size, 31);
      const auto frames = signal::frame_signal(x, 400, hop);
      EXPECT_EQ(signal::frame_count(size, 400, hop), frames.size())
          << "size=" << size << " hop=" << hop;
      std::vector<double> buf(400);
      for (std::size_t t = 0; t < frames.size(); ++t) {
        signal::copy_frame(x, t, hop, buf);
        EXPECT_EQ(buf, frames[t]) << "size=" << size << " hop=" << hop
                                  << " t=" << t;
      }
    }
  }
}

// --- Deblocking -----------------------------------------------------------

namespace {

/// 64x64 frame (4x4 macroblocks) with gentle gradients plus a jump at
/// every macroblock boundary, and MbInfo mixing every boundary-strength
/// class: intra (bs 4 at MB edges / 3 inside), coded residual (bs 2),
/// motion difference (bs 1) and none (bs 0).
h264::YuvFrame make_mixed_frame(std::vector<h264::MbInfo>& mb_info) {
  h264::YuvFrame frame(64, 64);
  auto fill = [](h264::Plane& p) {
    for (int y = 0; y < p.height; ++y) {
      for (int x = 0; x < p.width; ++x) {
        p.at(x, y) = static_cast<std::uint8_t>(
            (x * 3 + y * 2 + ((x / 16) + (y / 16)) * 25) & 0xFF);
      }
    }
  };
  fill(frame.y);
  fill(frame.cb);
  fill(frame.cr);
  mb_info.assign(static_cast<std::size_t>(frame.mb_count()), h264::MbInfo{});
  const int cols = frame.mb_cols();
  for (int mby = 0; mby < frame.mb_rows(); ++mby) {
    for (int mbx = 0; mbx < cols; ++mbx) {
      h264::MbInfo& mb = mb_info[static_cast<std::size_t>(mby) * cols + mbx];
      const int cls = (mbx + mby) % 4;
      if (cls == 0) {
        mb.intra = true;
      } else if (cls == 1) {
        for (int i = 0; i < 16; i += 3) mb.nonzero[static_cast<size_t>(i)] = true;
      } else if (cls == 2) {
        mb.mv = {4 * mbx, 0};
      }  // cls == 3: all-zero MB -> bs 0 against its own kind
    }
  }
  return frame;
}

}  // namespace

TEST(Deblock, OptimizedMatchesReferenceAcrossAllQps) {
  // At every QP: the fixed 64x64 pattern, then seeded random MbInfo on
  // threshold-clustered textures at four frame sizes (one MB, odd MB
  // counts, the fixed case's size, CIF).
  struct Size {
    int width;
    int height;
  };
  constexpr Size kSizes[] = {{16, 16}, {48, 32}, {64, 64}, {352, 288}};
  std::vector<h264::MbInfo> fixed_info;
  const h264::YuvFrame fixed = make_mixed_frame(fixed_info);
  h264::oracle::Coverage cov;
  std::uint64_t modified_total = 0;
  const auto check = [&](const h264::YuvFrame& base,
                         const std::vector<h264::MbInfo>& mb_info, int qp,
                         const char* what) {
    h264::YuvFrame opt = base;
    h264::YuvFrame ref = base;
    const h264::DeblockStats so = h264::deblock_frame(opt, mb_info, qp);
    const h264::DeblockStats sr =
        h264::oracle::deblock_frame_reference(ref, mb_info, qp, &cov);
    SCOPED_TRACE(::testing::Message() << what << " " << base.width() << "x"
                                      << base.height() << " qp=" << qp);
    EXPECT_EQ(so.edges_examined, sr.edges_examined);
    EXPECT_EQ(so.edges_filtered, sr.edges_filtered);
    EXPECT_EQ(so.pixels_modified, sr.pixels_modified);
    EXPECT_EQ(opt.y.data, ref.y.data);
    EXPECT_EQ(opt.cb.data, ref.cb.data);
    EXPECT_EQ(opt.cr.data, ref.cr.data);
    modified_total += so.pixels_modified;
  };
  for (int qp = 0; qp <= 51; ++qp) {
    check(fixed, fixed_info, qp, "fixed");
    for (const Size& sz : kSizes) {
      const auto seed = static_cast<std::uint32_t>(qp * 7919 + sz.width);
      h264::YuvFrame base(sz.width, sz.height);
      h264::oracle::threshold_texture(base.y, qp, seed);
      h264::oracle::threshold_texture(base.cb, qp, seed + 1);
      h264::oracle::threshold_texture(base.cr, qp, seed + 2);
      check(base,
            h264::oracle::random_mb_info(base.mb_cols(), base.mb_rows(),
                                         seed + 3),
            qp, "random");
    }
  }
  // The sweep must reach every branch of the per-line filter.
  EXPECT_GT(modified_total, 0u);
  EXPECT_GT(cov.strong_p3, 0u);
  EXPECT_GT(cov.strong_p1, 0u);
  EXPECT_GT(cov.strong_q3, 0u);
  EXPECT_GT(cov.strong_q1, 0u);
  EXPECT_GT(cov.normal_ap, 0u);
  EXPECT_GT(cov.normal_no_ap, 0u);
  EXPECT_GT(cov.normal_aq, 0u);
  EXPECT_GT(cov.normal_no_aq, 0u);
  EXPECT_GT(cov.normal_tc0_zero, 0u);
  EXPECT_GT(cov.clamp_low, 0u);
  EXPECT_GT(cov.clamp_high, 0u);
}

TEST(Deblock, StrongAndNormalBranchesBothFire) {
  // All-intra at high QP drives bs 4 (strong) on MB edges and bs 3
  // (normal) inside; the optimized filter must modify pixels through
  // both code paths and agree with the reference exactly.
  std::vector<h264::MbInfo> mb_info;
  h264::YuvFrame frame = make_mixed_frame(mb_info);
  for (auto& mb : mb_info) mb = h264::MbInfo{};
  for (auto& mb : mb_info) mb.intra = true;
  h264::YuvFrame ref = frame;
  const h264::DeblockStats so = h264::deblock_frame(frame, mb_info, 51);
  const h264::DeblockStats sr =
      h264::oracle::deblock_frame_reference(ref, mb_info, 51);
  EXPECT_GT(so.pixels_modified, 0u);
  EXPECT_EQ(so.pixels_modified, sr.pixels_modified);
  EXPECT_EQ(frame.y.data, ref.y.data);
  EXPECT_EQ(frame.cb.data, ref.cb.data);
  EXPECT_EQ(frame.cr.data, ref.cr.data);
}

// --- Motion compensation --------------------------------------------------

namespace {

int oracle_six_tap(int a, int b, int c, int d, int e, int f) {
  return a - 5 * b + 20 * c + 20 * d - 5 * e + f;
}

int oracle_half_h_raw(const h264::Plane& ref, int x, int y) {
  return oracle_six_tap(ref.at_clamped(x - 2, y), ref.at_clamped(x - 1, y),
                        ref.at_clamped(x, y), ref.at_clamped(x + 1, y),
                        ref.at_clamped(x + 2, y), ref.at_clamped(x + 3, y));
}

/// The per-pixel half-pel sampler motion compensation ran before it
/// moved to a clamped window and a separable filter: every tap an
/// at_clamped read, the diagonal phase recomputing each horizontal
/// half-pel row.  (hx, hy) are plane coordinates in half-pel units.
std::uint8_t oracle_sample_halfpel(const h264::Plane& ref, int hx, int hy) {
  const int x = hx >> 1;
  const int y = hy >> 1;
  const bool fx = hx & 1;
  const bool fy = hy & 1;
  if (!fx && !fy) return ref.at_clamped(x, y);
  if (fx && !fy) {
    return h264::clamp_pixel((oracle_half_h_raw(ref, x, y) + 16) >> 5);
  }
  if (!fx && fy) {
    const int v = oracle_six_tap(
        ref.at_clamped(x, y - 2), ref.at_clamped(x, y - 1),
        ref.at_clamped(x, y), ref.at_clamped(x, y + 1),
        ref.at_clamped(x, y + 2), ref.at_clamped(x, y + 3));
    return h264::clamp_pixel((v + 16) >> 5);
  }
  const int j = oracle_six_tap(
      oracle_half_h_raw(ref, x, y - 2), oracle_half_h_raw(ref, x, y - 1),
      oracle_half_h_raw(ref, x, y), oracle_half_h_raw(ref, x, y + 1),
      oracle_half_h_raw(ref, x, y + 2), oracle_half_h_raw(ref, x, y + 3));
  return h264::clamp_pixel((j + 512) >> 10);
}

void oracle_mc_halfpel(const h264::Plane& ref, int x0, int y0, int size,
                       h264::MotionVector mv, std::uint8_t* pred) {
  for (int y = 0; y < size; ++y) {
    for (int x = 0; x < size; ++x) {
      pred[y * size + x] = oracle_sample_halfpel(ref, 2 * (x0 + x) + mv.dx,
                                                 2 * (y0 + y) + mv.dy);
    }
  }
}

void oracle_mc(const h264::Plane& ref, int x0, int y0, int size,
               h264::MotionVector mv, std::uint8_t* pred) {
  for (int y = 0; y < size; ++y) {
    for (int x = 0; x < size; ++x) {
      pred[y * size + x] = ref.at_clamped(x0 + x + mv.dx, y0 + y + mv.dy);
    }
  }
}

h264::Plane seeded_plane(int w, int h, unsigned seed) {
  h264::Plane p(w, h);
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> d(0, 255);
  for (auto& v : p.data) v = static_cast<std::uint8_t>(d(rng));
  return p;
}

/// Half-pel vector components for a block of `size` at `origin` on an
/// axis of `extent` samples: both extremes the decoder accepts (±2^15),
/// and every full-pel block position from wholly before the plane to
/// wholly past it, each at both phases.  With the same list on the
/// other axis this reaches every border and every corner.
std::vector<int> mv_components(int origin, int extent, int size) {
  std::vector<int> out = {-(1 << 15), -(1 << 15) + 1, (1 << 15) - 1, 1 << 15};
  for (int pos = -size - 4; pos <= extent + 4; ++pos) {
    out.push_back(2 * (pos - origin));
    out.push_back(2 * (pos - origin) + 1);
  }
  return out;
}

}  // namespace

// The windowed, separable filter performs the same integer operations
// on the same clamped samples as the per-pixel loop it replaced, so every
// predicted sample is equal, at every phase, size and border.
TEST(MotionCompensation, WindowedFilterEqualsPerPixelOracle) {
  struct Geometry {
    int w, h;
  };
  const Geometry planes[] = {{32, 32}, {48, 24}, {20, 36}, {6, 5}};
  std::size_t blocks = 0;
  for (const Geometry g : planes) {
    const h264::Plane ref =
        seeded_plane(g.w, g.h, static_cast<unsigned>(g.w * 100 + g.h));
    for (const int size : {1, 4, 7, 8, 16}) {
      const int x0 = std::max(0, (g.w - size) / 2);
      const int y0 = std::max(0, (g.h - size) / 3);
      const std::vector<int> dxs = mv_components(x0, g.w, size);
      const std::vector<int> dys = mv_components(y0, g.h, size);
      std::vector<std::uint8_t> got(static_cast<std::size_t>(size) * size);
      std::vector<std::uint8_t> want(got.size());
      for (const int dy : dys) {
        for (const int dx : dxs) {
          const h264::MotionVector mv{dx, dy};
          h264::motion_compensate_halfpel(ref, x0, y0, size, mv, got.data());
          oracle_mc_halfpel(ref, x0, y0, size, mv, want.data());
          ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size()), 0)
              << g.w << "x" << g.h << " size " << size << " mv (" << dx
              << ", " << dy << ")";
          const h264::MotionVector full{dx >> 1, dy >> 1};
          h264::motion_compensate(ref, x0, y0, size, full, got.data());
          oracle_mc(ref, x0, y0, size, full, want.data());
          ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size()), 0)
              << g.w << "x" << g.h << " size " << size << " full-pel mv ("
              << full.dx << ", " << full.dy << ")";
          ++blocks;
        }
      }
    }
  }
  EXPECT_GT(blocks, 0u);
}

TEST(MotionCompensation, RejectsBlocksLargerThanTheWindow) {
  const h264::Plane ref = seeded_plane(32, 32, 5);
  std::vector<std::uint8_t> pred(32 * 32);
  for (const int size : {-1, 0, h264::kMbSize + 1}) {
    EXPECT_THROW(h264::motion_compensate_halfpel(ref, 0, 0, size, {1, 1},
                                                 pred.data()),
                 std::invalid_argument)
        << size;
    EXPECT_THROW(h264::motion_compensate(ref, 0, 0, size, {0, 0}, pred.data()),
                 std::invalid_argument)
        << size;
  }
}

// --- Codec golden digests -------------------------------------------------

// The encoder and decoder bytes this tree produces on the integer-only
// clip, pinned: a kernel change that alters one encoded bit or one
// decoded sample fails here.  The digests were computed before motion
// compensation, the residual path and the Exp-Golomb reader were
// optimized, and must not move.
TEST(CodecGolden, StreamAndDecodedPicturesMatchPinnedDigests) {
  for (const h264::golden::Case& c :
       {h264::golden::k64x64, h264::golden::kCif}) {
    const std::vector<h264::YuvFrame> frames =
        h264::golden::clip(c.width, c.height, c.frames);
    h264::Encoder enc(h264::golden::encoder_config(c));
    const std::vector<std::uint8_t> stream = enc.encode_annexb(frames);
    const std::uint64_t stream_digest =
        h264::golden::fnv1a(h264::golden::kFnvOffset, stream);
    EXPECT_EQ(stream_digest, c.stream) << c.width << "x" << c.height
                                       << " stream 0x" << std::hex
                                       << stream_digest;
    for (const bool deblock : {true, false}) {
      h264::Decoder dec(h264::DecoderConfig{deblock, false});
      const std::vector<h264::DecodedPicture> pics = dec.decode_annexb(stream);
      EXPECT_EQ(pics.size(), static_cast<std::size_t>(c.frames));
      const std::uint64_t got = h264::golden::pictures_digest(pics);
      EXPECT_EQ(got, deblock ? c.deblock_on : c.deblock_off)
          << c.width << "x" << c.height << " deblock " << deblock
          << " pictures 0x" << std::hex << got;
    }
  }
}

// --- GEMM -----------------------------------------------------------------

namespace {

nn::Matrix make_matrix(std::size_t rows, std::size_t cols, unsigned seed,
                       bool integer) {
  nn::Matrix m(rows, cols);
  std::mt19937 rng(seed);
  if (integer) {
    std::uniform_int_distribution<int> d(-4, 4);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        m(r, c) = static_cast<float>(d(rng));
      }
    }
  } else {
    std::uniform_real_distribution<float> d(-1.0f, 1.0f);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) m(r, c) = d(rng);
    }
  }
  return m;
}

}  // namespace

TEST(Gemm, MicroKernelIsExactOnSmallIntegers) {
  // Small integer entries make every partial sum exactly representable,
  // so any accumulation order gives the same floats: the micro-kernel
  // must equal the reference bit for bit, including the 5x7x9 and 1x1
  // tail-only shapes.
  const struct {
    std::size_t m, k, n;
  } shapes[] = {{5, 7, 9}, {1, 1, 1}, {4, 64, 16}, {17, 33, 5}, {64, 64, 64}};
  unsigned seed = 100;
  for (const auto& s : shapes) {
    const nn::Matrix a = make_matrix(s.m, s.k, seed++, true);
    const nn::Matrix b = make_matrix(s.k, s.n, seed++, true);
    const nn::Matrix opt = a.matmul(b);
    const nn::Matrix ref = a.matmul_reference(b);
    for (std::size_t i = 0; i < opt.size(); ++i) {
      ASSERT_EQ(opt.flat()[i], ref.flat()[i])
          << s.m << "x" << s.k << "x" << s.n << " elem " << i;
    }
  }
}

TEST(Gemm, MicroKernelTracksReferenceOnRealValues) {
  const struct {
    std::size_t m, k, n;
  } shapes[] = {{5, 7, 9}, {3, 100, 40}, {63, 65, 31}, {128, 128, 128}};
  unsigned seed = 200;
  for (const auto& s : shapes) {
    const nn::Matrix a = make_matrix(s.m, s.k, seed++, false);
    const nn::Matrix b = make_matrix(s.k, s.n, seed++, false);
    const nn::Matrix opt = a.matmul(b);
    const nn::Matrix ref = a.matmul_reference(b);
    const float tol = 1e-5f * static_cast<float>(s.k);
    for (std::size_t i = 0; i < opt.size(); ++i) {
      ASSERT_NEAR(opt.flat()[i], ref.flat()[i], tol)
          << s.m << "x" << s.k << "x" << s.n << " elem " << i;
    }
  }
}

TEST(Gemm, MatmulTransposedUnchangedByColumnBlocking) {
  // matmul_transposed kept one scalar accumulator per element over the
  // full ascending k range, so its 4-column blocking is bit-exact for
  // arbitrary float data, tails included.
  const nn::Matrix a = make_matrix(7, 33, 300, false);
  const nn::Matrix b = make_matrix(10, 33, 301, false);
  const nn::Matrix blocked = a.matmul_transposed(b);
  ASSERT_EQ(blocked.rows(), 7u);
  ASSERT_EQ(blocked.cols(), 10u);
  for (std::size_t r = 0; r < 7; ++r) {
    for (std::size_t c = 0; c < 10; ++c) {
      float acc = 0.0f;
      for (std::size_t k = 0; k < 33; ++k) acc += a(r, k) * b(c, k);
      ASSERT_EQ(blocked(r, c), acc) << r << "," << c;
    }
  }
}

TEST(Gemm, AddTransposedMatmulEqualsProductThenAdd) {
  // Dense::backward's weight-gradient accumulate must equal forming
  // a^T b in full (k ascending from zero, zero entries of a skipped) and
  // then adding it elementwise, bit for bit.  Shapes: the MLP's first
  // layer (one 1,088-wide input row against 416 output gradients),
  // multi-row pairs, and a with zeros in it.
  const auto product_then_add = [](nn::Matrix acc, const nn::Matrix& a,
                                   const nn::Matrix& b) {
    nn::Matrix prod(a.cols(), b.cols());
    for (std::size_t k = 0; k < a.rows(); ++k) {
      for (std::size_t r = 0; r < a.cols(); ++r) {
        const float av = a(k, r);
        if (av == 0.0f) continue;
        for (std::size_t c = 0; c < b.cols(); ++c) {
          prod(r, c) += av * b(k, c);
        }
      }
    }
    acc += prod;
    return acc;
  };
  const struct {
    std::size_t k, r, c;
    bool zeros;
  } shapes[] = {{1, 1088, 416, false}, {1, 1088, 416, true},
                {6, 33, 17, false},    {6, 33, 17, true},
                {64, 9, 5, true}};
  unsigned seed = 400;
  for (const auto& s : shapes) {
    nn::Matrix a = make_matrix(s.k, s.r, seed++, false);
    const nn::Matrix b = make_matrix(s.k, s.c, seed++, false);
    nn::Matrix grad = make_matrix(s.r, s.c, seed++, false);
    if (s.zeros) {
      // ReLU-style zeros in a (a third of the entries, whole columns
      // among them) and signed zeros in the accumulator.
      for (std::size_t k = 0; k < s.k; ++k) {
        for (std::size_t r = 0; r < s.r; ++r) {
          if (r % 3 == 0 || (k + r) % 5 == 0) a(k, r) = 0.0f;
        }
      }
      grad(0, 0) = -0.0f;
      grad(s.r - 1, s.c - 1) = -0.0f;
    }
    const nn::Matrix want = product_then_add(grad, a, b);
    grad.add_transposed_matmul(a, b);
    ASSERT_EQ(std::memcmp(grad.flat().data(), want.flat().data(),
                          want.size() * sizeof(float)),
              0)
        << s.k << "x" << s.r << " by " << s.k << "x" << s.c;
  }
  nn::Matrix wrong(3, 4);
  EXPECT_THROW(wrong.add_transposed_matmul(nn::Matrix(2, 3), nn::Matrix(1, 4)),
               std::invalid_argument);
  EXPECT_THROW(wrong.add_transposed_matmul(nn::Matrix(2, 3), nn::Matrix(2, 5)),
               std::invalid_argument);
}
