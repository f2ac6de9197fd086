// Assembles the classifier input features from a raw waveform:
// per-frame MFCC + zero-crossing + RMS + pitch + spectral magnitude
// (Section 2.2's feature list), stacked into a fixed-length sequence
// Matrix with per-feature standardization.
#pragma once

#include <complex>
#include <span>
#include <vector>

#include "nn/matrix.hpp"
#include "signal/mel.hpp"

namespace affectsys::affect {

struct FeatureConfig {
  signal::MfccConfig mfcc;
  std::size_t timesteps = 64;  ///< sequences are cropped/padded to this
  bool standardize = true;     ///< per-feature z-score over the utterance
};

/// Reusable per-window scratch for the zero-allocation feature path:
/// one frame buffer, the MFCC workspace, the pitch autocorrelation
/// buffers, the magnitude-spectrum staging, and the output feature
/// matrix itself.  Sized lazily on first use by the owning
/// FeatureExtractor and stable afterwards, so the steady-state affect
/// pipeline performs no heap allocation per window.
struct FeatureWorkspace {
  std::vector<double> frame;                    ///< frame_len samples
  signal::MfccWorkspace mfcc;                   ///< MFCC scratch
  std::vector<double> mfcc_out;                 ///< num_coeffs values
  std::vector<double> acorr;                    ///< frame_len lags (pitch)
  std::vector<std::complex<double>> acorr_work; ///< next_pow2(2*frame_len)+1
  std::vector<double> mag;                      ///< fft bins (magnitude)
  std::vector<std::complex<double>> mag_work;   ///< fft_size + 1
  nn::Matrix features;                          ///< timesteps x feature_dim
};

class FeatureExtractor {
 public:
  explicit FeatureExtractor(const FeatureConfig& cfg);

  /// Features per timestep: num_coeffs MFCCs + {zcr, rms, pitch, magnitude}.
  std::size_t feature_dim() const { return cfg_.mfcc.num_coeffs + 4; }
  std::size_t timesteps() const { return cfg_.timesteps; }

  /// (timesteps, feature_dim) feature matrix for a waveform.  Routes
  /// through extract_into() on a fresh workspace, so the allocating and
  /// zero-allocation paths are byte-identical.
  nn::Matrix extract(std::span<const double> samples) const;

  /// Zero-allocation extract: fills (and returns) ws.features, reusing
  /// every scratch buffer across calls.  The matrix reference stays
  /// valid until the next extract_into() on the same workspace.
  const nn::Matrix& extract_into(std::span<const double> samples,
                                 FeatureWorkspace& ws) const;

  /// Pre-optimization reference pipeline (frame_signal materialization,
  /// complex-FFT spectra, per-frame vectors).  Kept callable so
  /// bench_kernels measures the optimized path against the pre-PR
  /// behaviour and the kernel suite bounds their drift.
  nn::Matrix extract_ref(std::span<const double> samples) const;

  const FeatureConfig& config() const { return cfg_; }

 private:
  // Per-frame decomposition of extract_into().

  /// Sizes ws (no-op once warm) and zero-fills ws.features.
  void prepare_workspace(FeatureWorkspace& ws) const;
  /// Raw (pre-standardization) feature row for one frame_len-sample
  /// frame; `row` must span feature_dim() values.
  void compute_frame_row(std::span<const double> frame, std::span<float> row,
                         FeatureWorkspace& ws) const;
  /// Per-feature z-score over the first `frames` rows of `out`
  /// (writing all timesteps() rows).
  void standardize_rows(nn::Matrix& out, std::size_t frames) const;

  FeatureConfig cfg_;
  signal::MfccExtractor mfcc_;
};

}  // namespace affectsys::affect
