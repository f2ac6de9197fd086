// Unit + property tests for the DSP substrate.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <random>

#include "signal/features.hpp"
#include "signal/fft.hpp"
#include "signal/mel.hpp"
#include "signal/window.hpp"

namespace sig = affectsys::signal;

namespace {

std::vector<double> sine(double freq, double rate, std::size_t n,
                         double amp = 1.0) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = amp * std::sin(2.0 * std::numbers::pi * freq * i / rate);
  }
  return x;
}

}  // namespace

// -------------------------------------------------------------------- FFT

TEST(Fft, NextPow2) {
  EXPECT_EQ(sig::next_pow2(0), 1u);
  EXPECT_EQ(sig::next_pow2(1), 1u);
  EXPECT_EQ(sig::next_pow2(2), 2u);
  EXPECT_EQ(sig::next_pow2(3), 4u);
  EXPECT_EQ(sig::next_pow2(512), 512u);
  EXPECT_EQ(sig::next_pow2(513), 1024u);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<std::complex<double>> buf(6);
  EXPECT_THROW(sig::fft_inplace(buf), std::invalid_argument);
}

TEST(Fft, ForwardInverseRoundTrip) {
  std::mt19937 rng(1);
  std::normal_distribution<double> d(0.0, 1.0);
  std::vector<double> x(256);
  for (auto& v : x) v = d(rng);
  const auto spec = sig::fft_real(x);
  const auto back = sig::ifft_real(spec);
  ASSERT_GE(back.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(back[i], x[i], 1e-9);
  }
}

// Regression test for the twiddle-recurrence precision bug: the kernel
// used to generate twiddles with `w *= wlen` per butterfly, losing one
// ulp per step, which showed up as ~1e-10 drift at long sizes.  Planned
// twiddles come from std::polar directly, so a 4096-point round trip
// must stay at 1e-9.
TEST(Fft, RoundTripStaysTightAtN4096) {
  constexpr std::size_t kN = 4096;
  std::mt19937 rng(11);
  std::normal_distribution<double> d(0.0, 1.0);
  std::vector<std::complex<double>> x(kN);
  for (auto& v : x) v = {d(rng), d(rng)};
  auto buf = x;
  sig::fft_inplace(buf, false);
  sig::fft_inplace(buf, true);
  for (std::size_t i = 0; i < kN; ++i) {
    // The inverse is unscaled; fold the 1/N in here.
    EXPECT_NEAR(buf[i].real() / kN, x[i].real(), 1e-9) << "bin " << i;
    EXPECT_NEAR(buf[i].imag() / kN, x[i].imag(), 1e-9) << "bin " << i;
  }
}

TEST(FftPlan, MatchesNaiveDftAtHighPrecision) {
  constexpr std::size_t kN = 512;
  std::mt19937 rng(12);
  std::normal_distribution<double> d(0.0, 1.0);
  std::vector<std::complex<double>> x(kN);
  for (auto& v : x) v = {d(rng), d(rng)};

  // O(n^2) reference with per-bin std::polar phases.
  std::vector<std::complex<double>> want(kN);
  for (std::size_t k = 0; k < kN; ++k) {
    std::complex<double> acc{0.0, 0.0};
    for (std::size_t j = 0; j < kN; ++j) {
      acc += x[j] * std::polar(1.0, -2.0 * std::numbers::pi *
                                        static_cast<double>(k * j % kN) / kN);
    }
    want[k] = acc;
  }

  auto got = x;
  sig::FftPlan(kN).forward(got);
  for (std::size_t k = 0; k < kN; ++k) {
    EXPECT_NEAR(got[k].real(), want[k].real(), 1e-9) << "bin " << k;
    EXPECT_NEAR(got[k].imag(), want[k].imag(), 1e-9) << "bin " << k;
  }
}

TEST(FftPlan, RejectsNonPowerOfTwoSizes) {
  EXPECT_THROW(sig::FftPlan(0), std::invalid_argument);
  EXPECT_THROW(sig::FftPlan(3), std::invalid_argument);
  EXPECT_THROW(sig::FftPlan(96), std::invalid_argument);
}

TEST(FftPlan, RejectsMismatchedBufferSize) {
  sig::FftPlan plan(8);
  std::vector<std::complex<double>> buf(16);
  EXPECT_THROW(plan.forward(buf), std::invalid_argument);
}

TEST(FftPlan, CacheReturnsSharedImmutablePlans) {
  const auto a = sig::FftPlan::cached(1024);
  const auto b = sig::FftPlan::cached(1024);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a.get(), b.get());  // one plan per size, shared
  EXPECT_EQ(a->size(), 1024u);
  EXPECT_NE(a.get(), sig::FftPlan::cached(2048).get());
}

TEST(Fft, ParsevalEnergyConservation) {
  std::mt19937 rng(2);
  std::normal_distribution<double> d(0.0, 1.0);
  std::vector<double> x(128);
  for (auto& v : x) v = d(rng);
  double time_energy = 0.0;
  for (double v : x) time_energy += v * v;
  const auto spec = sig::fft_real(x);
  double freq_energy = 0.0;
  for (const auto& c : spec) freq_energy += std::norm(c);
  EXPECT_NEAR(freq_energy / static_cast<double>(spec.size()), time_energy,
              1e-8);
}

TEST(Fft, PureToneLandsInCorrectBin) {
  const double rate = 1000.0;
  const std::size_t n = 512;
  // Bin-aligned frequency: bin 32 => 62.5 Hz.
  const auto x = sine(32.0 * rate / n, rate, n);
  const auto mag = sig::magnitude_spectrum(x, n);
  std::size_t peak = 0;
  for (std::size_t k = 1; k < mag.size(); ++k) {
    if (mag[k] > mag[peak]) peak = k;
  }
  EXPECT_EQ(peak, 32u);
}

TEST(Fft, AutocorrelationPeaksAtPeriod) {
  const double rate = 8000.0;
  const auto x = sine(200.0, rate, 1024);  // period = 40 samples
  const auto r = sig::autocorrelation(x);
  std::size_t peak = 20;
  for (std::size_t lag = 20; lag < 60; ++lag) {
    if (r[lag] > r[peak]) peak = lag;
  }
  EXPECT_EQ(peak, 40u);
}

// ------------------------------------------------------------------ window

TEST(Window, HammingNeverZero) {
  const auto w = sig::hamming_window(33);
  for (double v : w) EXPECT_GT(v, 0.05);
}

TEST(Window, ApplyRejectsSizeMismatch) {
  std::vector<double> frame(8, 1.0);
  const auto w = sig::hamming_window(16);
  EXPECT_THROW(sig::apply_window(frame, w), std::invalid_argument);
}

TEST(Framing, CoversWholeSignalWithZeroPad) {
  std::vector<double> x(95, 1.0);
  const auto frames = sig::frame_signal(x, 40, 30);
  // Starts at 0, 30, 60; the frame at 60 reaches the end of the signal.
  ASSERT_EQ(frames.size(), 3u);
  for (const auto& f : frames) EXPECT_EQ(f.size(), 40u);
  // Final frame is 35 real samples + 5 zeros.
  double tail_sum = 0.0;
  for (std::size_t i = 35; i < 40; ++i) tail_sum += frames[2][i];
  EXPECT_EQ(tail_sum, 0.0);
  // Every input sample is covered by some frame.
  EXPECT_GE(frames.size() * 30 + 10, x.size());
}

TEST(Framing, EmptyInputYieldsNoFrames) {
  EXPECT_TRUE(sig::frame_signal({}, 16, 8).empty());
}

// --------------------------------------------------------------------- mel

TEST(Mel, HzMelRoundTrip) {
  for (double hz : {50.0, 440.0, 1000.0, 4000.0, 7999.0}) {
    EXPECT_NEAR(sig::mel_to_hz(sig::hz_to_mel(hz)), hz, 1e-6);
  }
}

TEST(Mel, FilterbankRowsAreNonNegativeAndPeaked) {
  sig::MelFilterbank bank(26, 512, 16000.0, 20.0, 8000.0);
  for (std::size_t f = 0; f < bank.num_filters(); ++f) {
    double peak = 0.0;
    for (double w : bank.filter(f)) {
      EXPECT_GE(w, 0.0);
      peak = std::max(peak, w);
    }
    EXPECT_GT(peak, 0.0) << "filter " << f << " is empty";
    EXPECT_LE(peak, 1.0 + 1e-12);
  }
}

TEST(Mel, RejectsBadBandEdges) {
  EXPECT_THROW(sig::MelFilterbank(26, 512, 16000.0, 100.0, 9000.0),
               std::invalid_argument);
  EXPECT_THROW(sig::MelFilterbank(26, 512, 16000.0, 500.0, 100.0),
               std::invalid_argument);
}

TEST(Dct, OrthonormalDcOfConstant) {
  std::vector<double> x(16, 2.0);
  const auto c = sig::dct2(x, 16);
  EXPECT_NEAR(c[0], 2.0 * std::sqrt(16.0) / std::sqrt(1.0) / 4.0 * 4.0, 1e-9);
  for (std::size_t k = 1; k < c.size(); ++k) EXPECT_NEAR(c[k], 0.0, 1e-9);
}

TEST(Mfcc, ShapeMatchesConfig) {
  sig::MfccConfig cfg;
  sig::MfccExtractor mfcc(cfg);
  const auto x = sine(300.0, cfg.sample_rate, 16000);
  const auto feats = mfcc.extract(x);
  ASSERT_FALSE(feats.empty());
  for (const auto& row : feats) EXPECT_EQ(row.size(), cfg.num_coeffs);
}

TEST(Mfcc, DistinguishesSpectralShapes) {
  sig::MfccConfig cfg;
  sig::MfccExtractor mfcc(cfg);
  const auto low = mfcc.extract_frame(sine(200.0, cfg.sample_rate, 400));
  const auto high = mfcc.extract_frame(sine(3000.0, cfg.sample_rate, 400));
  double dist = 0.0;
  for (std::size_t i = 1; i < low.size(); ++i) {  // skip energy coeff
    dist += std::abs(low[i] - high[i]);
  }
  EXPECT_GT(dist, 1.0);
}

// ---------------------------------------------------------------- features

TEST(Features, ZcrOfToneTracksFrequency) {
  const double rate = 8000.0;
  const auto low = sine(100.0, rate, 4000);
  const auto high = sine(1000.0, rate, 4000);
  EXPECT_LT(sig::zero_crossing_rate(low), sig::zero_crossing_rate(high));
  // ZCR of an f Hz tone is ~2f/rate.
  EXPECT_NEAR(sig::zero_crossing_rate(high), 2.0 * 1000.0 / rate, 0.01);
}

TEST(Features, RmsOfSine) {
  const auto x = sine(100.0, 8000.0, 8000, 2.0);
  EXPECT_NEAR(sig::rms(x), 2.0 / std::sqrt(2.0), 1e-3);
}

TEST(Features, RmsOfSilenceIsZero) {
  std::vector<double> x(100, 0.0);
  EXPECT_EQ(sig::rms(x), 0.0);
}

class PitchAccuracy : public ::testing::TestWithParam<double> {};

TEST_P(PitchAccuracy, WithinOnePercent) {
  const double f0 = GetParam();
  const double rate = 16000.0;
  const auto x = sine(f0, rate, 2048);
  const auto pitch = sig::estimate_pitch(x, rate);
  ASSERT_TRUE(pitch.has_value());
  EXPECT_NEAR(*pitch, f0, f0 * 0.01);
}

INSTANTIATE_TEST_SUITE_P(Frequencies, PitchAccuracy,
                         ::testing::Values(80.0, 120.0, 200.0, 330.0, 440.0));

TEST(Features, PitchRejectsSilenceAndNoise) {
  std::vector<double> silence(2048, 0.0);
  EXPECT_FALSE(sig::estimate_pitch(silence, 16000.0).has_value());
  std::mt19937 rng(4);
  std::normal_distribution<double> d(0.0, 1.0);
  std::vector<double> noise(2048);
  for (auto& v : noise) v = d(rng);
  // White noise is aperiodic; the voicing threshold should reject it.
  EXPECT_FALSE(sig::estimate_pitch(noise, 16000.0, 60.0, 500.0, 0.5));
}

TEST(Features, SpectralCentroidOrdersByBrightness) {
  const double rate = 16000.0;
  const auto dark = sine(200.0, rate, 512);
  const auto bright = sine(4000.0, rate, 512);
  const auto m1 = sig::magnitude_spectrum(dark, 512);
  const auto m2 = sig::magnitude_spectrum(bright, 512);
  EXPECT_LT(sig::spectral_centroid(m1, rate, 512),
            sig::spectral_centroid(m2, rate, 512));
}

TEST(Features, RolloffBelowNyquist) {
  const auto x = sine(500.0, 16000.0, 512);
  const auto m = sig::magnitude_spectrum(x, 512);
  const double r = sig::spectral_rolloff(m, 16000.0, 512);
  EXPECT_GT(r, 0.0);
  EXPECT_LE(r, 8000.0);
}
