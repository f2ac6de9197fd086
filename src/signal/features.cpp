#include "signal/features.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "signal/fft.hpp"
#include "signal/window.hpp"

namespace affectsys::signal {

double zero_crossing_rate(std::span<const double> x) {
  if (x.size() < 2) return 0.0;
  std::size_t crossings = 0;
  for (std::size_t i = 1; i < x.size(); ++i) {
    if ((x[i - 1] >= 0.0) != (x[i] >= 0.0)) ++crossings;
  }
  return static_cast<double>(crossings) / static_cast<double>(x.size() - 1);
}

double rms(std::span<const double> x) {
  if (x.empty()) return 0.0;
  double acc = 0.0;
  for (double v : x) acc += v * v;
  return std::sqrt(acc / static_cast<double>(x.size()));
}

std::vector<double> rms_contour(std::span<const double> x,
                                std::size_t frame_len, std::size_t hop) {
  std::vector<double> out;
  for (const auto& f : frame_signal(x, frame_len, hop)) out.push_back(rms(f));
  return out;
}

namespace {

/// Whether a frame of n samples has a pitch to search for in
/// [fmin, fmax]; every pitch path answers std::nullopt otherwise.
bool pitch_searchable(std::size_t n, double fmin, double fmax) {
  return n >= 16 && fmin > 0.0 && fmax > fmin;
}

/// Peak search + parabolic interpolation shared by the optimized and
/// reference pitch paths (identical on identical autocorrelations).
std::optional<double> pitch_from_autocorrelation(std::span<const double> r,
                                                 double sample_rate,
                                                 double fmin, double fmax,
                                                 double voicing_threshold) {
  if (r[0] <= 1e-12) return std::nullopt;  // silence
  const auto lag_min = static_cast<std::size_t>(sample_rate / fmax);
  const auto lag_max = std::min(
      static_cast<std::size_t>(sample_rate / fmin), r.size() - 1);
  if (lag_min >= lag_max || lag_min == 0) return std::nullopt;
  std::size_t best = lag_min;
  for (std::size_t lag = lag_min; lag <= lag_max; ++lag) {
    if (r[lag] > r[best]) best = lag;
  }
  if (r[best] / r[0] < voicing_threshold) return std::nullopt;
  // Parabolic interpolation around the peak for sub-sample lag accuracy.
  double lag = static_cast<double>(best);
  if (best > 0 && best + 1 < r.size()) {
    const double denom = r[best - 1] - 2.0 * r[best] + r[best + 1];
    if (std::abs(denom) > 1e-12) {
      lag += 0.5 * (r[best - 1] - r[best + 1]) / denom;
    }
  }
  return sample_rate / lag;
}

}  // namespace

std::optional<double> estimate_pitch(std::span<const double> x,
                                     double sample_rate, double fmin,
                                     double fmax, double voicing_threshold) {
  if (!pitch_searchable(x.size(), fmin, fmax)) return std::nullopt;
  const std::vector<double> r = autocorrelation(x);
  return pitch_from_autocorrelation(r, sample_rate, fmin, fmax,
                                    voicing_threshold);
}

PitchMagnitude pitch_and_magnitude(std::span<const double> x,
                                   double sample_rate, double fmin,
                                   double fmax, double voicing_threshold,
                                   std::size_t fft_size,
                                   std::span<double> r_buf,
                                   std::span<std::complex<double>> work) {
  const std::size_t n = next_pow2(2 * x.size());
  if (x.empty() || fft_size < x.size() || n % fft_size != 0) {
    throw std::invalid_argument(
        "pitch_and_magnitude: fft_size must divide next_pow2(2 * x.size()) "
        "and be >= x.size()");
  }
  if (r_buf.size() < x.size()) {
    throw std::invalid_argument("pitch_and_magnitude: r buffer too small");
  }
  const std::span<double> r = r_buf.first(x.size());
  autocorrelation(x, r, work);
  // work[0 .. n/2] now holds |X[k]|^2 of the n-point transform, and the
  // fft_size-point spectrum is every (n / fft_size)-th bin of it: the
  // same sqrt-then-sum as magnitude_spectrum() and a mean over its bins.
  const std::size_t stride = n / fft_size;
  const std::size_t nbins = fft_size / 2 + 1;
  double acc = 0.0;
  for (std::size_t k = 0; k < nbins; ++k) {
    acc += std::sqrt(work[k * stride].real());
  }
  PitchMagnitude out;
  out.magnitude = acc / static_cast<double>(nbins);
  if (pitch_searchable(x.size(), fmin, fmax)) {
    out.pitch = pitch_from_autocorrelation(r, sample_rate, fmin, fmax,
                                           voicing_threshold);
  }
  return out;
}

std::optional<double> estimate_pitch_ref(std::span<const double> x,
                                         double sample_rate, double fmin,
                                         double fmax,
                                         double voicing_threshold) {
  if (!pitch_searchable(x.size(), fmin, fmax)) return std::nullopt;
  const std::vector<double> r = autocorrelation_ref(x);
  return pitch_from_autocorrelation(r, sample_rate, fmin, fmax,
                                    voicing_threshold);
}

double spectral_centroid(std::span<const double> magnitude,
                         double sample_rate, std::size_t fft_size) {
  const double bin_hz = sample_rate / static_cast<double>(fft_size);
  double num = 0.0, den = 0.0;
  for (std::size_t k = 0; k < magnitude.size(); ++k) {
    num += bin_hz * static_cast<double>(k) * magnitude[k];
    den += magnitude[k];
  }
  return den > 1e-12 ? num / den : 0.0;
}

double spectral_rolloff(std::span<const double> magnitude, double sample_rate,
                        std::size_t fft_size, double fraction) {
  double total = 0.0;
  for (double m : magnitude) total += m * m;
  if (total <= 1e-12) return 0.0;
  const double bin_hz = sample_rate / static_cast<double>(fft_size);
  double acc = 0.0;
  for (std::size_t k = 0; k < magnitude.size(); ++k) {
    acc += magnitude[k] * magnitude[k];
    if (acc >= fraction * total) return bin_hz * static_cast<double>(k);
  }
  return bin_hz * static_cast<double>(magnitude.size() - 1);
}

}  // namespace affectsys::signal
