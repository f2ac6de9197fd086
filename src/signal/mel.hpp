// Mel filterbank and MFCC extraction.
//
// MFCCs are the primary spectral feature fed to the affect classifiers
// (Section 2.2 of the paper lists MFCC among the input features).
#pragma once

#include <complex>
#include <span>
#include <vector>

#include "signal/window.hpp"

namespace affectsys::signal {

/// Hz -> mel (HTK convention).
double hz_to_mel(double hz);
/// mel -> Hz (HTK convention).
double mel_to_hz(double mel);

/// Triangular mel filterbank.
///
/// Each row maps the one-sided power spectrum (fft_size/2 + 1 bins) onto
/// one mel band.  Filters are unit-peak triangles between successive mel
/// center frequencies.  Rows are stored flat (one contiguous
/// num_filters x num_bins block) with the nonzero bin range of each
/// triangle precomputed, so apply() touches only the support of each
/// filter — bit-identical to the dense sum, since the skipped terms are
/// exact zeros.
class MelFilterbank {
 public:
  /// @param num_filters  number of mel bands
  /// @param fft_size     FFT length used for the power spectra (power of two)
  /// @param sample_rate  sampling rate in Hz
  /// @param fmin,fmax    band edges in Hz (fmax <= sample_rate/2)
  MelFilterbank(std::size_t num_filters, std::size_t fft_size,
                double sample_rate, double fmin, double fmax);

  /// Applies the filterbank to a one-sided power spectrum.
  /// Returns num_filters band energies.
  std::vector<double> apply(std::span<const double> power_spec) const;

  /// Allocation-free apply(): writes num_filters() band energies into
  /// `out`.  Bit-identical to the allocating overload.
  void apply(std::span<const double> power_spec, std::span<double> out) const;

  std::size_t num_filters() const { return num_filters_; }
  std::size_t num_bins() const { return num_bins_; }
  /// Filter weights for band `f` (size = num_bins()).
  std::span<const double> filter(std::size_t f) const;

 private:
  std::size_t num_bins_;
  std::size_t num_filters_;
  /// Row-major num_filters x num_bins triangle weights.
  std::vector<double> weights_;
  /// Per-filter [begin, end) bin range outside of which the row is zero.
  std::vector<std::size_t> band_begin_;
  std::vector<std::size_t> band_end_;
};

/// Orthonormal DCT-II of `x`, returning the first `num_coeffs` coefficients.
std::vector<double> dct2(std::span<const double> x, std::size_t num_coeffs);

/// Configuration for MfccExtractor.
struct MfccConfig {
  double sample_rate = 16000.0;
  std::size_t frame_len = 400;   ///< 25 ms @ 16 kHz
  std::size_t hop = 160;         ///< 10 ms @ 16 kHz
  std::size_t fft_size = 512;
  std::size_t num_filters = 26;
  std::size_t num_coeffs = 13;
  double fmin = 20.0;
  double fmax = 8000.0;
};

/// Reusable scratch for the allocation-free MFCC path: sized on first
/// use by MfccExtractor and then stable, so the steady-state per-frame
/// cost is pure arithmetic (the workspace idiom of DESIGN.md "Kernel
/// optimization").
struct MfccWorkspace {
  std::vector<double> frame;                   ///< frame_len windowed copy
  std::vector<std::complex<double>> fft_work;  ///< fft_size + 1 (rfft scratch)
  std::vector<double> power;                   ///< fft_size/2 + 1 bins
  std::vector<double> bands;                   ///< num_filters log energies
};

/// Frame-by-frame MFCC extraction: window -> power spectrum -> mel bands ->
/// log -> DCT-II.
class MfccExtractor {
 public:
  explicit MfccExtractor(const MfccConfig& cfg);

  /// MFCCs for one frame of cfg.frame_len samples (shorter input is
  /// zero-padded).  Returns cfg.num_coeffs values.  Routes through the
  /// workspace overload, so both paths are byte-identical.
  std::vector<double> extract_frame(std::span<const double> frame) const;

  /// Allocation-free extract_frame: writes cfg.num_coeffs values into
  /// `out`, reusing (and lazily sizing) `ws` buffers.
  void extract_frame(std::span<const double> frame, std::span<double> out,
                     MfccWorkspace& ws) const;

  /// Pre-optimization reference (full complex FFT, per-call vectors,
  /// trig-evaluating DCT).  Kept callable so bench_kernels and the
  /// kernel suite measure/validate the optimized path against it.
  std::vector<double> extract_frame_ref(std::span<const double> frame) const;

  /// MFCC matrix for a whole signal: one row of cfg.num_coeffs values per
  /// analysis frame.
  std::vector<std::vector<double>> extract(std::span<const double> x) const;

  const MfccConfig& config() const { return cfg_; }
  const MelFilterbank& filterbank() const { return bank_; }

 private:
  MfccConfig cfg_;
  std::vector<double> window_;
  MelFilterbank bank_;
  /// Raw DCT-II basis cos(pi/N * (i + 0.5) * k), row-major
  /// num_coeffs x num_filters — the per-frame trig of dct2() hoisted to
  /// construction.  Norm factors are applied after the dot product, so
  /// the table path is bit-identical to dct2().
  std::vector<double> dct_cos_;
};

}  // namespace affectsys::signal
