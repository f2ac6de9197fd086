#include "affect/features.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <utility>

#include "obs/metrics.hpp"
#include "signal/features.hpp"
#include "signal/fft.hpp"
#include "signal/window.hpp"

namespace affectsys::affect {
namespace {

/// One thread's frame scratch for the row step: the frame copy, the MFCC
/// workspace, the pitch autocorrelation buffers and the magnitude-
/// spectrum staging.  Every session's rows share it, instead of each
/// session holding its own 50 KB copy.
struct FrameScratch {
  std::vector<double> frame;                    ///< frame_len samples
  signal::MfccWorkspace mfcc;
  std::vector<double> mfcc_out;                 ///< num_coeffs values
  std::vector<double> acorr;                    ///< frame_len lags (pitch)
  std::vector<std::complex<double>> acorr_work; ///< next_pow2(2*frame_len)+1
  std::vector<double> mag;                      ///< fft bins (magnitude)
  std::vector<std::complex<double>> mag_work;   ///< fft_size + 1
};

/// This thread's scratch, sized for `mc` (no-ops once the thread has
/// seen that geometry).
FrameScratch& frame_scratch(const signal::MfccConfig& mc) {
  thread_local FrameScratch s;
  s.frame.resize(mc.frame_len);
  s.mfcc_out.resize(std::min(mc.num_coeffs, mc.num_filters));
  s.acorr.resize(mc.frame_len);
  s.acorr_work.resize(signal::next_pow2(2 * mc.frame_len) + 1);
  s.mag.resize(mc.fft_size / 2 + 1);
  s.mag_work.resize(mc.fft_size + 1);
  return s;
}

}  // namespace

FeatureExtractor::FeatureExtractor(const FeatureConfig& cfg)
    : cfg_(cfg), mfcc_(cfg.mfcc) {}

nn::Matrix FeatureExtractor::extract(std::span<const double> samples) const {
  FeatureWorkspace ws;
  return extract_into(samples, ws);  // copies out of the workspace
}

const nn::Matrix& FeatureExtractor::extract_into(
    std::span<const double> samples, FeatureWorkspace& ws) const {
  nn::Matrix& out = ws.features;
  if (out.rows() != cfg_.timesteps || out.cols() != feature_dim()) {
    out = nn::Matrix(cfg_.timesteps, feature_dim());
  }
  const std::size_t rows = window_rows(samples.size());
  compute_rows(samples, 0, rows, out);
  standardize(out, rows, out);
  return out;
}

std::size_t FeatureExtractor::window_rows(std::size_t samples) const {
  const auto& mc = cfg_.mfcc;
  return std::min(signal::frame_count(samples, mc.frame_len, mc.hop),
                  cfg_.timesteps);
}

std::size_t FeatureExtractor::shared_rows(std::size_t samples,
                                          std::uint64_t shift) const {
  const auto& mc = cfg_.mfcc;
  if (shift % mc.hop != 0) return 0;
  const std::uint64_t hops = shift / mc.hop;
  const std::size_t whole =
      samples < mc.frame_len ? 0 : (samples - mc.frame_len) / mc.hop + 1;
  const std::size_t usable = std::min(window_rows(samples), whole);
  return hops < usable ? usable - static_cast<std::size_t>(hops) : 0;
}

void FeatureExtractor::compute_rows(std::span<const double> samples,
                                    std::size_t begin, std::size_t end,
                                    nn::Matrix& raw) const {
  const auto& mc = cfg_.mfcc;
  FrameScratch& s = frame_scratch(mc);
  for (std::size_t t = begin; t < end; ++t) {
    signal::copy_frame(samples, t, mc.hop, s.frame);
    const std::span<const double> frame = s.frame;
    const std::span<float> row = raw.row(t);
    mfcc_.extract_frame(frame, s.mfcc_out, s.mfcc);
    std::size_t c = 0;
    for (; c < s.mfcc_out.size(); ++c) {
      row[c] = static_cast<float>(s.mfcc_out[c]);
    }
    row[c++] = static_cast<float>(signal::zero_crossing_rate(frame));
    row[c++] = static_cast<float>(signal::rms(frame));
    const auto pitch = signal::estimate_pitch(frame, mc.sample_rate, 60.0,
                                              400.0, 0.3, s.acorr,
                                              s.acorr_work);
    // Unvoiced frames carry pitch 0; voiced pitch is scaled to O(1).
    row[c++] = static_cast<float>(pitch.value_or(0.0) / 400.0);
    row[c++] = static_cast<float>(
        signal::mean_magnitude(frame, mc.fft_size, s.mag, s.mag_work));
    // Columns past the MFCCs the filterbank can supply stay zero.
    std::fill(row.begin() + static_cast<std::ptrdiff_t>(c), row.end(), 0.0f);
  }
}

void FeatureExtractor::standardize(const nn::Matrix& raw, std::size_t rows,
                                   nn::Matrix& out) const {
  const std::size_t T = std::min(rows, cfg_.timesteps);
  const std::size_t dim = feature_dim();
  if (out.rows() != cfg_.timesteps || out.cols() != dim) {
    out = nn::Matrix(cfg_.timesteps, dim);
  }
  if (!cfg_.standardize || T <= 1) {
    if (&out != &raw) {
      std::copy_n(raw.flat().begin(), T * dim, out.flat().begin());
    }
    std::fill(out.flat().begin() + static_cast<std::ptrdiff_t>(T * dim),
              out.flat().end(), 0.0f);
    return;
  }
  for (std::size_t c = 0; c < dim; ++c) {
    double mean = 0.0;
    for (std::size_t t = 0; t < T; ++t) mean += raw(t, c);
    mean /= static_cast<double>(T);
    double var = 0.0;
    for (std::size_t t = 0; t < T; ++t) {
      const double d = raw(t, c) - mean;
      var += d * d;
    }
    var /= static_cast<double>(T);
    const double sd = std::sqrt(var) + 1e-6;
    for (std::size_t t = 0; t < T; ++t) {
      out(t, c) = static_cast<float>((raw(t, c) - mean) / sd);
    }
    // Rows past the window's frames are zero before scaling.
    const auto pad = static_cast<float>((0.0 - mean) / sd);
    for (std::size_t t = T; t < cfg_.timesteps; ++t) out(t, c) = pad;
  }
}

void FeatureStream::push(double t_end, std::span<const double> samples,
                         std::uint64_t end) {
  if (count_ == windows_.size()) windows_.emplace_back();
  const Window& before = count_ > 0 ? windows_[count_ - 1] : prev_;
  Window& w = windows_[count_++];
  w.t_end = t_end;
  w.samples = samples;
  w.start = end - samples.size();
  w.rows = fx_->window_rows(samples.size());
  w.reused = 0;
  w.shift = 0;
  if (before.samples.size() == samples.size() && w.start >= before.start) {
    const std::uint64_t shift = w.start - before.start;
    w.reused = fx_->shared_rows(samples.size(), shift);
    w.shift = static_cast<std::size_t>(shift / fx_->config().mfcc.hop);
  }
  if (w.raw.rows() != fx_->timesteps() || w.raw.cols() != fx_->feature_dim()) {
    w.raw = nn::Matrix(fx_->timesteps(), fx_->feature_dim());
  }
}

RowJob FeatureStream::job(std::size_t k) {
  Window& w = windows_[k];
  return RowJob{w.samples, &w.raw, w.reused, w.rows};
}

const nn::Matrix& FeatureStream::finish(std::size_t k) {
  Window& w = windows_[k];
  if (w.reused > 0) {
    const nn::Matrix& src = k > 0 ? windows_[k - 1].raw : prev_.raw;
    std::copy_n(src.row(w.shift).begin(), w.reused * w.raw.cols(),
                w.raw.row(0).begin());
  }
  AFFECTSYS_COUNT("affect.feature_rows", w.rows);
  AFFECTSYS_COUNT("affect.feature_rows_reused", w.reused);
  fx_->standardize(w.raw, w.rows, out_);
  return out_;
}

void FeatureStream::clear() {
  if (count_ == 0) return;
  std::swap(prev_, windows_[count_ - 1]);
  count_ = 0;
}

nn::Matrix FeatureExtractor::extract_ref(
    std::span<const double> samples) const {
  const auto& mc = cfg_.mfcc;
  const auto frames = signal::frame_signal(samples, mc.frame_len, mc.hop);
  const std::size_t dim = feature_dim();
  nn::Matrix out(cfg_.timesteps, dim);

  const std::size_t T = std::min(frames.size(), cfg_.timesteps);
  for (std::size_t t = 0; t < T; ++t) {
    const auto& frame = frames[t];
    const std::vector<double> mfcc = mfcc_.extract_frame_ref(frame);
    for (std::size_t c = 0; c < mfcc.size(); ++c) {
      out(t, c) = static_cast<float>(mfcc[c]);
    }
    std::size_t c = mfcc.size();
    out(t, c++) = static_cast<float>(signal::zero_crossing_rate(frame));
    out(t, c++) = static_cast<float>(signal::rms(frame));
    const auto pitch =
        signal::estimate_pitch_ref(frame, mc.sample_rate, 60.0, 400.0);
    out(t, c++) = static_cast<float>(pitch.value_or(0.0) / 400.0);
    // The reference magnitude path goes through the full complex FFT at
    // the configured transform size (the pre-PR magnitude_spectrum).
    std::vector<std::complex<double>> buf(mc.fft_size);
    for (std::size_t i = 0; i < frame.size(); ++i) buf[i] = {frame[i], 0.0};
    signal::fft_inplace(buf);
    double acc = 0.0;
    const std::size_t nbins = mc.fft_size / 2 + 1;
    for (std::size_t k = 0; k < nbins; ++k) acc += std::abs(buf[k]);
    out(t, c++) = static_cast<float>(acc / static_cast<double>(nbins));
  }

  if (cfg_.standardize && T > 1) {
    for (std::size_t c = 0; c < dim; ++c) {
      double mean = 0.0;
      for (std::size_t t = 0; t < T; ++t) mean += out(t, c);
      mean /= static_cast<double>(T);
      double var = 0.0;
      for (std::size_t t = 0; t < T; ++t) {
        const double d = out(t, c) - mean;
        var += d * d;
      }
      var /= static_cast<double>(T);
      const double sd = std::sqrt(var) + 1e-6;
      for (std::size_t t = 0; t < cfg_.timesteps; ++t) {
        out(t, c) = static_cast<float>((out(t, c) - mean) / sd);
      }
    }
  }
  return out;
}

}  // namespace affectsys::affect
