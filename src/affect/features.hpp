// Assembles the classifier input features from a raw waveform:
// per-frame MFCC + zero-crossing + RMS + pitch + spectral magnitude
// (Section 2.2's feature list), stacked into a fixed-length sequence
// Matrix with per-feature standardization.
//
// Extraction is two steps, public so a server can spread the expensive
// one over its thread pool:
//   row step     compute_rows(): raw feature rows, one per frame — all
//                the DSP, independent per row;
//   finish step  standardize(): the per-feature z-score over a window's
//                rows.
// extract_into() runs them back to back.  FeatureStream adds overlap
// reuse for a stream of sliding windows on top of the same two steps.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/matrix.hpp"
#include "signal/mel.hpp"

namespace affectsys::affect {

struct FeatureConfig {
  signal::MfccConfig mfcc;
  std::size_t timesteps = 64;  ///< sequences are cropped/padded to this
};

/// Output of extract_into(): the timesteps x feature_dim matrix it
/// fills, reused across calls.  The per-frame DSP scratch is
/// thread-local (see compute_rows()), so this is all a caller keeps.
struct FeatureWorkspace {
  nn::Matrix features;
};

class FeatureExtractor {
 public:
  /// @throws std::invalid_argument if cfg.mfcc.fft_size does not divide
  ///         next_pow2(2 * cfg.mfcc.frame_len): the magnitude column is
  ///         read off the pitch autocorrelation's transform of that size
  explicit FeatureExtractor(const FeatureConfig& cfg);

  /// Features per timestep: num_coeffs MFCCs + {zcr, rms, pitch, magnitude}.
  std::size_t feature_dim() const { return cfg_.mfcc.num_coeffs + 4; }
  std::size_t timesteps() const { return cfg_.timesteps; }

  /// (timesteps, feature_dim) feature matrix for a waveform.  Routes
  /// through extract_into() on a fresh workspace, so the allocating and
  /// zero-allocation paths are byte-identical.
  nn::Matrix extract(std::span<const double> samples) const;

  /// Zero-allocation extract: the row step over every row, then the
  /// finish step, into (and returning) ws.features.  The reference stays
  /// valid until the next extract_into() on the same workspace.
  const nn::Matrix& extract_into(std::span<const double> samples,
                                 FeatureWorkspace& ws) const;

  /// Pre-optimization reference pipeline (frame_signal materialization,
  /// complex-FFT spectra, per-frame vectors).  Kept callable so
  /// bench_kernels measures the optimized path against the pre-PR
  /// behaviour and the kernel suite bounds their drift.
  nn::Matrix extract_ref(std::span<const double> samples) const;

  /// Rows a window of `samples` samples feeds: its frame count, capped
  /// at timesteps().
  std::size_t window_rows(std::size_t samples) const;

  /// Leading rows of a `samples`-long window equal to rows of a
  /// previous window of the same length that started `shift` samples
  /// earlier: row t is the previous window's row t + shift / hop when
  /// the shift is whole hops and both frames lie wholly inside their
  /// windows (a zero-padded tail frame is never shared).
  std::size_t shared_rows(std::size_t samples, std::uint64_t shift) const;

  /// Row step: raw (pre-standardization) rows [begin, end) of the window
  /// `samples` into the same rows of `raw` (timesteps x feature_dim).
  /// The frame scratch is thread-local, so concurrent calls on disjoint
  /// rows are safe, and a thread allocates only on its first row.
  void compute_rows(std::span<const double> samples, std::size_t begin,
                    std::size_t end, nn::Matrix& raw) const;

  /// Finish step: the classifier input from the first `rows` rows of
  /// `raw` — per-feature z-score over those rows, later rows zero before
  /// scaling.  `out` may be `raw`.
  void standardize(const nn::Matrix& raw, std::size_t rows,
                   nn::Matrix& out) const;

  const FeatureConfig& config() const { return cfg_; }

 private:
  FeatureConfig cfg_;
  signal::MfccExtractor mfcc_;
};

/// Rows one window still needs from the row step: compute_rows(samples,
/// begin, end, *raw).
struct RowJob {
  std::span<const double> samples;
  nn::Matrix* raw = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Split extraction for one stream of sliding windows, with overlap
/// reuse.  Consecutive windows overlap (a 1 s window at a 0.5 s stride
/// shares 14 of its 64 rows with the previous one), so a window copies
/// the rows FeatureExtractor::shared_rows() allows from the window
/// before it instead of recomputing them.  Bytes match extract_into():
/// a row is a pure function of its frame, and standardization stays per
/// window.  Per batch of windows:
///   push()    records a window — no DSP;
///   job(k)    the rows window k still needs, for the row step, run on
///             any thread in any order;
///   finish(k) in window order: copies the reused rows, standardizes;
///   clear()   keeps the last window's raw rows as the next reuse source.
class FeatureStream {
 public:
  /// The extractor must outlive the stream.
  explicit FeatureStream(const FeatureExtractor& fx) : fx_(&fx) {}

  /// Records a window whose last sample is sample `end` of the stream: a
  /// running count of the samples the caller's window buffer took in,
  /// so equal counts name equal audio.  A buffer that restarts (a
  /// capture-gap resync) needs no signal: its next window starts a whole
  /// window past the last one and shares no rows with it.  `samples`
  /// must stay valid until clear().
  void push(double t_end, std::span<const double> samples, std::uint64_t end);

  std::size_t size() const { return count_; }
  double t_end(std::size_t k) const { return windows_[k].t_end; }
  RowJob job(std::size_t k);
  /// Copies window k's reused rows and standardizes it into this
  /// thread's output matrix (per-thread scratch, not per-stream: the
  /// window is consumed within the caller's finish step).  The reference
  /// is valid until this thread's next finish() on any stream.  Every
  /// earlier window must have finished.
  const nn::Matrix& finish(std::size_t k);
  void clear();

 private:
  struct Window {
    double t_end = 0.0;
    std::span<const double> samples;
    std::uint64_t start = 0;  ///< stream index of samples[0]
    std::size_t rows = 0;     ///< rows the window feeds
    std::size_t reused = 0;   ///< leading rows copied from the window before
    std::size_t shift = 0;    ///< that window's row index of row 0
    nn::Matrix raw;           ///< timesteps x feature_dim raw rows
  };

  const FeatureExtractor* fx_;
  /// The first count_ are this batch's windows; slots (and their raw
  /// matrices) are reused across batches.
  std::vector<Window> windows_;
  std::size_t count_ = 0;
  /// The last finished window, the next reuse source (empty, so
  /// matching no window's length, until one has finished).
  Window prev_;
};

}  // namespace affectsys::affect
