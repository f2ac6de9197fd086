// Time-domain and spectral scalar features used by the affect classifier
// front-end: zero-crossing rate, RMS energy, pitch, spectral magnitude
// statistics (Section 2.2: "MFCC, zero crossing, rmse, sound pitch, and
// magnitude").
#pragma once

#include <complex>
#include <optional>
#include <span>
#include <vector>

namespace affectsys::signal {

/// Fraction of adjacent sample pairs with a sign change, in [0, 1].
double zero_crossing_rate(std::span<const double> x);

/// Root-mean-square amplitude.
double rms(std::span<const double> x);

/// Per-frame RMS contour.
std::vector<double> rms_contour(std::span<const double> x,
                                std::size_t frame_len, std::size_t hop);

/// Autocorrelation pitch estimator.
///
/// Searches lags corresponding to [fmin, fmax] Hz for the autocorrelation
/// peak.  Returns std::nullopt for silent or aperiodic frames (peak below
/// `voicing_threshold` relative to r[0]).
std::optional<double> estimate_pitch(std::span<const double> x,
                                     double sample_rate, double fmin = 60.0,
                                     double fmax = 500.0,
                                     double voicing_threshold = 0.3);

/// A frame's pitch and its mean spectral magnitude (the paper's
/// "magnitude" feature).
struct PitchMagnitude {
  std::optional<double> pitch;  ///< estimate_pitch()'s value
  /// Mean of magnitude_spectrum(x, fft_size), bit for bit.
  double magnitude = 0.0;
};

/// Allocation-free estimate_pitch that also reads the mean magnitude of
/// x zero-padded to `fft_size` points off the pitch autocorrelation's
/// forward transform, so one frame costs one forward transform, not two.
/// That transform has n = next_pow2(2 * x.size()) points; the
/// fft_size-point spectrum is its bins k * n / fft_size (see fft.hpp on
/// why they agree bit for bit).  `r` must hold x.size() doubles and
/// `work` n + 1 complex elements (the autocorrelation buffers).
/// @throws std::invalid_argument if x is empty, fft_size < x.size() or
///         fft_size does not divide n, or a buffer is too small
PitchMagnitude pitch_and_magnitude(std::span<const double> x,
                                   double sample_rate, double fmin,
                                   double fmax, double voicing_threshold,
                                   std::size_t fft_size, std::span<double> r,
                                   std::span<std::complex<double>> work);

/// Reference pitch estimator over the complex-FFT autocorrelation (the
/// pre-RfftPlan pipeline); agrees with estimate_pitch() to rounding.
/// Kept callable for bench_kernels and the kernel tolerance suite.
std::optional<double> estimate_pitch_ref(std::span<const double> x,
                                         double sample_rate,
                                         double fmin = 60.0,
                                         double fmax = 500.0,
                                         double voicing_threshold = 0.3);

/// Spectral centroid in Hz of the one-sided magnitude spectrum.
double spectral_centroid(std::span<const double> magnitude,
                         double sample_rate, std::size_t fft_size);

/// Spectral rolloff frequency: lowest Hz below which `fraction` of the
/// total spectral energy lies.
double spectral_rolloff(std::span<const double> magnitude, double sample_rate,
                        std::size_t fft_size, double fraction = 0.85);

}  // namespace affectsys::signal
