#include "signal/mel.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "signal/fft.hpp"

namespace affectsys::signal {

double hz_to_mel(double hz) { return 2595.0 * std::log10(1.0 + hz / 700.0); }

double mel_to_hz(double mel) {
  return 700.0 * (std::pow(10.0, mel / 2595.0) - 1.0);
}

MelFilterbank::MelFilterbank(std::size_t num_filters, std::size_t fft_size,
                             double sample_rate, double fmin, double fmax)
    : num_bins_(fft_size / 2 + 1), num_filters_(num_filters) {
  if (num_filters == 0) {
    throw std::invalid_argument("MelFilterbank: num_filters must be > 0");
  }
  if (fmax > sample_rate / 2.0 || fmin < 0.0 || fmin >= fmax) {
    throw std::invalid_argument("MelFilterbank: invalid band edges");
  }
  // num_filters + 2 equally spaced points on the mel scale.
  const double mel_lo = hz_to_mel(fmin);
  const double mel_hi = hz_to_mel(fmax);
  std::vector<double> centers_hz(num_filters + 2);
  for (std::size_t i = 0; i < centers_hz.size(); ++i) {
    const double mel =
        mel_lo + (mel_hi - mel_lo) * static_cast<double>(i) /
                     static_cast<double>(num_filters + 1);
    centers_hz[i] = mel_to_hz(mel);
  }
  const double bin_hz = sample_rate / static_cast<double>(fft_size);
  weights_.assign(num_filters * num_bins_, 0.0);
  band_begin_.assign(num_filters, num_bins_);
  band_end_.assign(num_filters, 0);
  for (std::size_t f = 0; f < num_filters; ++f) {
    const double lo = centers_hz[f], mid = centers_hz[f + 1],
                 hi = centers_hz[f + 2];
    double* row = &weights_[f * num_bins_];
    for (std::size_t k = 0; k < num_bins_; ++k) {
      const double hz = bin_hz * static_cast<double>(k);
      if (hz > lo && hz < mid) {
        row[k] = (hz - lo) / (mid - lo);
      } else if (hz >= mid && hz < hi) {
        row[k] = (hi - hz) / (hi - mid);
      }
      if (row[k] != 0.0) {
        band_begin_[f] = std::min(band_begin_[f], k);
        band_end_[f] = k + 1;
      }
    }
    // Degenerate triangle (no nonzero bin): empty range.
    if (band_end_[f] <= band_begin_[f]) {
      band_begin_[f] = 0;
      band_end_[f] = 0;
    }
  }
}

std::span<const double> MelFilterbank::filter(std::size_t f) const {
  if (f >= num_filters_) {
    throw std::out_of_range("MelFilterbank::filter: band index");
  }
  return {&weights_[f * num_bins_], num_bins_};
}

std::vector<double> MelFilterbank::apply(
    std::span<const double> power_spec) const {
  std::vector<double> bands(num_filters_);
  apply(power_spec, bands);
  return bands;
}

void MelFilterbank::apply(std::span<const double> power_spec,
                          std::span<double> out) const {
  if (power_spec.size() != num_bins_) {
    throw std::invalid_argument("MelFilterbank::apply: wrong spectrum size");
  }
  if (out.size() < num_filters_) {
    throw std::invalid_argument("MelFilterbank::apply: output too small");
  }
  for (std::size_t f = 0; f < num_filters_; ++f) {
    const double* __restrict w = &weights_[f * num_bins_];
    double acc = 0.0;
    // Summing only the triangle's support skips terms that are exactly
    // 0.0 * p[k]; adding those cannot change a finite accumulator, so
    // the restricted sum matches the dense one bit for bit.
    const std::size_t end = band_end_[f];
    for (std::size_t k = band_begin_[f]; k < end; ++k) {
      acc += w[k] * power_spec[k];
    }
    out[f] = acc;
  }
}

std::vector<double> dct2(std::span<const double> x, std::size_t num_coeffs) {
  const std::size_t n = x.size();
  if (n == 0) throw std::invalid_argument("dct2: empty input");
  num_coeffs = std::min(num_coeffs, n);
  std::vector<double> out(num_coeffs, 0.0);
  const double norm0 = std::sqrt(1.0 / static_cast<double>(n));
  const double norm = std::sqrt(2.0 / static_cast<double>(n));
  for (std::size_t k = 0; k < num_coeffs; ++k) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += x[i] * std::cos(std::numbers::pi / static_cast<double>(n) *
                             (static_cast<double>(i) + 0.5) *
                             static_cast<double>(k));
    }
    out[k] = acc * (k == 0 ? norm0 : norm);
  }
  return out;
}

MfccExtractor::MfccExtractor(const MfccConfig& cfg)
    : cfg_(cfg),
      window_(hamming_window(cfg.frame_len)),
      bank_(cfg.num_filters, cfg.fft_size, cfg.sample_rate, cfg.fmin,
            cfg.fmax) {
  if (cfg.fft_size < cfg.frame_len) {
    throw std::invalid_argument("MfccExtractor: fft_size < frame_len");
  }
  // Hoist the DCT-II basis out of the per-frame loop.  Arguments match
  // dct2() exactly, so table and trig paths agree bit for bit.
  const std::size_t n = cfg.num_filters;
  const std::size_t nc = std::min(cfg.num_coeffs, n);
  dct_cos_.resize(nc * n);
  for (std::size_t k = 0; k < nc; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      dct_cos_[k * n + i] =
          std::cos(std::numbers::pi / static_cast<double>(n) *
                   (static_cast<double>(i) + 0.5) * static_cast<double>(k));
    }
  }
}

std::vector<double> MfccExtractor::extract_frame(
    std::span<const double> frame) const {
  MfccWorkspace ws;
  std::vector<double> out(std::min(cfg_.num_coeffs, cfg_.num_filters));
  extract_frame(frame, out, ws);
  return out;
}

void MfccExtractor::extract_frame(std::span<const double> frame,
                                  std::span<double> out,
                                  MfccWorkspace& ws) const {
  const std::size_t nc = std::min(cfg_.num_coeffs, cfg_.num_filters);
  if (out.size() < nc) {
    throw std::invalid_argument("MfccExtractor::extract_frame: out too small");
  }
  ws.frame.resize(cfg_.frame_len);
  ws.fft_work.resize(cfg_.fft_size + 1);
  ws.power.resize(cfg_.fft_size / 2 + 1);
  ws.bands.resize(cfg_.num_filters);

  const std::size_t take = std::min(frame.size(), cfg_.frame_len);
  for (std::size_t i = 0; i < take; ++i) ws.frame[i] = frame[i];
  for (std::size_t i = take; i < cfg_.frame_len; ++i) ws.frame[i] = 0.0;
  apply_window(ws.frame, window_);
  power_spectrum(ws.frame, cfg_.fft_size, ws.power, ws.fft_work);
  bank_.apply(ws.power, ws.bands);
  for (double& b : ws.bands) b = std::log(b + 1e-10);

  // DCT-II from the precomputed basis (same accumulation order as
  // dct2()).
  const std::size_t n = cfg_.num_filters;
  const double norm0 = std::sqrt(1.0 / static_cast<double>(n));
  const double norm = std::sqrt(2.0 / static_cast<double>(n));
  const double* __restrict bands = ws.bands.data();
  for (std::size_t k = 0; k < nc; ++k) {
    const double* __restrict row = &dct_cos_[k * n];
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) acc += bands[i] * row[i];
    out[k] = acc * (k == 0 ? norm0 : norm);
  }
}

std::vector<double> MfccExtractor::extract_frame_ref(
    std::span<const double> frame) const {
  std::vector<double> buf(cfg_.frame_len, 0.0);
  const std::size_t take = std::min(frame.size(), cfg_.frame_len);
  for (std::size_t i = 0; i < take; ++i) buf[i] = frame[i];
  apply_window(buf, window_);
  const std::vector<double> ps = power_spectrum_ref(buf, cfg_.fft_size);
  std::vector<double> bands = bank_.apply(ps);
  for (double& b : bands) b = std::log(b + 1e-10);
  return dct2(bands, cfg_.num_coeffs);
}

std::vector<std::vector<double>> MfccExtractor::extract(
    std::span<const double> x) const {
  std::vector<std::vector<double>> out;
  out.reserve(frame_count(x.size(), cfg_.frame_len, cfg_.hop));
  MfccWorkspace ws;
  const std::size_t nc = std::min(cfg_.num_coeffs, cfg_.num_filters);
  for (const auto& frame : frame_signal(x, cfg_.frame_len, cfg_.hop)) {
    std::vector<double> coeffs(nc);
    extract_frame(frame, coeffs, ws);
    out.push_back(std::move(coeffs));
  }
  return out;
}

}  // namespace affectsys::signal
