#include "signal/fft.hpp"

#include <bit>
#include <cmath>
#include <map>
#include <mutex>
#include <numbers>
#include <stdexcept>

namespace affectsys::signal {

std::size_t next_pow2(std::size_t n) {
  if (n <= 1) return 1;
  return std::bit_ceil(n);
}

FftPlan::FftPlan(std::size_t n) : n_(n) {
  if (n == 0 || !std::has_single_bit(n)) {
    throw std::invalid_argument("FftPlan: size must be a power of two");
  }
  std::vector<std::uint32_t> bitrev(n);
  for (std::size_t i = 1; i < n; ++i) {
    bitrev[i] = static_cast<std::uint32_t>(
        (bitrev[i >> 1] >> 1) | ((i & 1) ? (n >> 1) : 0));
    if (i < bitrev[i]) {
      swaps_.emplace_back(static_cast<std::uint32_t>(i), bitrev[i]);
    }
  }
  twiddle_.reserve(n > 1 ? n - 1 : 0);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    for (std::size_t k = 0; k < len / 2; ++k) {
      twiddle_.push_back(std::polar(
          1.0, -2.0 * std::numbers::pi * static_cast<double>(k) /
                   static_cast<double>(len)));
    }
  }
  twiddle_inv_.reserve(twiddle_.size());
  for (const std::complex<double>& w : twiddle_) {
    twiddle_inv_.push_back(std::conj(w));
  }
}

namespace {

// The hot loops work on the interleaved doubles of each
// std::complex<double> array (re at 2k, im at 2k+1, as [complex.numbers]
// guarantees) and spell every product in the operation order fft.hpp
// sets out.
double* as_doubles(std::span<std::complex<double>> s) {
  return reinterpret_cast<double*>(s.data());
}
const double* as_doubles(std::span<const std::complex<double>> s) {
  return reinterpret_cast<const double*>(s.data());
}

/// One radix-2 butterfly on the complex pair at lo and hi with twiddle
/// w: the product w*hi spelled in fft.hpp's operation order, then the
/// sum and difference.  Every stage runs exactly this expression.
inline void butterfly(double* lo, double* hi, const double* w) {
  const double wr = w[0], wi = w[1];
  const double xr = hi[0], xi = hi[1];
  const double vr = xr * wr - xi * wi;
  const double vi = xr * wi + xi * wr;
  const double ur = lo[0], ui = lo[1];
  lo[0] = ur + vr;
  lo[1] = ui + vi;
  hi[0] = ur - vr;
  hi[1] = ui - vi;
}

/// A stage whose butterfly span is the compile-time `Half` (the len-2 and
/// len-4 stages): the per-block loop unrolls into straight-line blocks
/// the compiler vectorizes across, instead of running a one- or
/// two-trip inner loop per block.
template <std::size_t Half>
void fixed_stage(double* __restrict d, const double* __restrict tw,
                 std::size_t n) {
  for (std::size_t i = 0; i < n; i += 2 * Half) {
    double* lo = d + 2 * i;
    double* hi = lo + 2 * Half;
    for (std::size_t k = 0; k < Half; ++k) {
      butterfly(lo + 2 * k, hi + 2 * k, tw + 2 * k);
    }
  }
}

/// One block of a longer stage.  lo and hi are disjoint halves of the
/// block and tw is the plan's own table, so no store can reach a later
/// load: __restrict and ivdep let the loop vectorize without the
/// run-time overlap check the compiler would otherwise emit per block.
void stage_block(double* __restrict lo, double* __restrict hi,
                 const double* __restrict tw, std::size_t half) {
#pragma GCC ivdep
  for (std::size_t k = 0; k < half; ++k) {
    butterfly(lo + 2 * k, hi + 2 * k, tw + 2 * k);
  }
}

/// Danielson-Lanczos butterflies over bit-reversed data with the
/// stage-major twiddle table `tw`.
void butterflies(double* d, const double* tw, std::size_t n) {
  if (n < 2) return;
  fixed_stage<1>(d, tw, n);
  tw += 2;
  if (n < 4) return;
  fixed_stage<2>(d, tw, n);
  tw += 4;
  for (std::size_t half = 4; half < n; half <<= 1) {
    for (std::size_t i = 0; i < n; i += 2 * half) {
      stage_block(d + 2 * i, d + 2 * (i + half), tw, half);
    }
    tw += 2 * half;
  }
}

}  // namespace

void FftPlan::execute(std::span<std::complex<double>> data,
                      bool inverse) const {
  if (data.size() != n_) {
    throw std::invalid_argument("FftPlan::execute: buffer/plan size mismatch");
  }
  for (const auto& [i, j] : swaps_) std::swap(data[i], data[j]);
  butterflies(as_doubles(data), as_doubles(inverse ? twiddle_inv_ : twiddle_),
              n_);
}

std::shared_ptr<const FftPlan> FftPlan::cached(std::size_t n) {
  static std::mutex mu;
  static std::map<std::size_t, std::shared_ptr<const FftPlan>> plans;
  std::lock_guard<std::mutex> lk(mu);
  auto it = plans.find(n);
  if (it == plans.end()) {
    it = plans.emplace(n, std::make_shared<const FftPlan>(n)).first;
  }
  return it->second;
}

RfftPlan::RfftPlan(std::size_t n) : n_(n) {
  if (n < 2 || !std::has_single_bit(n)) {
    throw std::invalid_argument("RfftPlan: size must be a power of two >= 2");
  }
  half_ = FftPlan::cached(n / 2);
  unpack_.reserve(n / 2 + 1);
  for (std::size_t k = 0; k <= n / 2; ++k) {
    unpack_.push_back(std::polar(
        1.0, -2.0 * std::numbers::pi * static_cast<double>(k) /
                 static_cast<double>(n)));
  }
}

void RfftPlan::execute(std::span<const double> x,
                       std::span<std::complex<double>> out,
                       std::span<std::complex<double>> work) const {
  const std::size_t half = n_ / 2;
  if (x.size() > n_ || out.size() < bins() || work.size() < half) {
    throw std::invalid_argument("RfftPlan::execute: buffer size mismatch");
  }
  // Pack pairs of real samples into the half-size complex buffer,
  // zero-padding the tail.
  for (std::size_t j = 0; j < half; ++j) {
    const std::size_t e = 2 * j, o = 2 * j + 1;
    work[j] = {e < x.size() ? x[e] : 0.0, o < x.size() ? x[o] : 0.0};
  }
  half_->forward(work.first(half));
  // Hermitian unpacking into the one-sided spectrum.  Z[half] aliases
  // Z[0]; the even part of X is (Z[k] + conj(Z[half-k]))/2 and the odd
  // part (Z[k] - conj(Z[half-k]))/(2i) = -i/2 * (Z[k] - conj(..)).
  const std::complex<double> z0 = work[0];
  out[0] = {z0.real() + z0.imag(), 0.0};
  out[half] = {z0.real() - z0.imag(), 0.0};
  const double* z = as_doubles(work);
  const double* u = as_doubles(unpack_);
  double* o = as_doubles(out);
  for (std::size_t k = 1; k < half; ++k) {
    const double zr = z[2 * k], zi = z[2 * k + 1];
    const double cr = z[2 * (half - k)], ci = -z[2 * (half - k) + 1];
    const double er = 0.5 * (zr + cr), ei = 0.5 * (zi + ci);
    const double odr = 0.5 * (zi - ci), odi = -0.5 * (zr - cr);
    const double ur = u[2 * k], ui = u[2 * k + 1];
    o[2 * k] = er + (ur * odr - ui * odi);
    o[2 * k + 1] = ei + (ur * odi + ui * odr);
  }
}

void RfftPlan::inverse(std::span<const std::complex<double>> spec,
                       std::span<double> out,
                       std::span<std::complex<double>> work) const {
  const std::size_t half = n_ / 2;
  if (spec.size() < bins() || work.size() < half) {
    throw std::invalid_argument("RfftPlan::inverse: buffer size mismatch");
  }
  // Undo the Hermitian unpacking: with E[k] = (X[k] + conj(X[N/2-k]))/2
  // and O[k] = exp(+2*pi*i*k/N) * (X[k] - conj(X[N/2-k]))/2, the packed
  // sequence Z[k] = E[k] + i*O[k] is the forward half-size FFT of
  // z[j] = x[2j] + i*x[2j+1], so one inverse half-size FFT (scaled by
  // 2/N) recovers the interleaved signal.
  const double* x = as_doubles(spec);
  const double* u = as_doubles(unpack_);
  double* w = as_doubles(work);
  for (std::size_t k = 0; k < half; ++k) {
    const double xr = x[2 * k], xi = x[2 * k + 1];
    const double cr = x[2 * (half - k)], ci = -x[2 * (half - k) + 1];
    const double er = 0.5 * (xr + cr), ei = 0.5 * (xi + ci);
    const double dr = 0.5 * (xr - cr), di = 0.5 * (xi - ci);
    // conj(unpack_[k]) * d, the conjugate's sign carried by the sums.
    const double ur = u[2 * k], ui = u[2 * k + 1];
    const double odr = ur * dr + ui * di;
    const double odi = ur * di - ui * dr;
    w[2 * k] = er - odi;
    w[2 * k + 1] = ei + odr;
  }
  half_->execute(work.first(half), /*inverse=*/true);
  const double scale = 1.0 / static_cast<double>(half);
  const std::size_t count = std::min(n_, out.size());
  for (std::size_t j = 0; 2 * j < count; ++j) {
    out[2 * j] = work[j].real() * scale;
    if (2 * j + 1 < count) out[2 * j + 1] = work[j].imag() * scale;
  }
}

std::shared_ptr<const RfftPlan> RfftPlan::cached(std::size_t n) {
  static std::mutex mu;
  static std::map<std::size_t, std::shared_ptr<const RfftPlan>> plans;
  std::lock_guard<std::mutex> lk(mu);
  auto it = plans.find(n);
  if (it == plans.end()) {
    it = plans.emplace(n, std::make_shared<const RfftPlan>(n)).first;
  }
  return it->second;
}

void fft_inplace(std::span<std::complex<double>> data, bool inverse) {
  const std::size_t n = data.size();
  if (n == 0 || !std::has_single_bit(n)) {
    throw std::invalid_argument("fft_inplace: size must be a power of two");
  }
  FftPlan::cached(n)->execute(data, inverse);
}

std::vector<std::complex<double>> fft_real(std::span<const double> x) {
  const std::size_t n = next_pow2(x.size());
  std::vector<std::complex<double>> buf(n);
  fft_real(x, buf);
  return buf;
}

void fft_real(std::span<const double> x,
              std::span<std::complex<double>> out) {
  if (out.size() < x.size()) {
    throw std::invalid_argument("fft_real: output shorter than input");
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = {i < x.size() ? x[i] : 0.0, 0.0};
  }
  fft_inplace(out);
}

std::vector<double> ifft_real(std::span<const std::complex<double>> spectrum) {
  std::vector<std::complex<double>> buf(spectrum.begin(), spectrum.end());
  fft_inplace(buf, /*inverse=*/true);
  std::vector<double> out(buf.size());
  const double scale = 1.0 / static_cast<double>(buf.size());
  for (std::size_t i = 0; i < buf.size(); ++i) out[i] = buf[i].real() * scale;
  return out;
}

namespace {

void check_spectrum_args(std::span<const double> x, std::size_t fft_size) {
  if (!std::has_single_bit(fft_size) || fft_size < x.size()) {
    throw std::invalid_argument(
        "magnitude_spectrum: fft_size must be a power of two >= x.size()");
  }
}

}  // namespace

std::vector<double> magnitude_spectrum(std::span<const double> x,
                                       std::size_t fft_size) {
  std::vector<double> mag(fft_size / 2 + 1);
  std::vector<std::complex<double>> work(fft_size + 1);
  magnitude_spectrum(x, fft_size, mag, work);
  return mag;
}

void magnitude_spectrum(std::span<const double> x, std::size_t fft_size,
                        std::span<double> out,
                        std::span<std::complex<double>> work) {
  power_spectrum(x, fft_size, out, work);
  const std::size_t nbins = fft_size / 2 + 1;
  for (std::size_t k = 0; k < nbins; ++k) out[k] = std::sqrt(out[k]);
}

std::vector<double> power_spectrum(std::span<const double> x,
                                   std::size_t fft_size) {
  std::vector<double> ps(fft_size / 2 + 1);
  std::vector<std::complex<double>> work(fft_size + 1);
  power_spectrum(x, fft_size, ps, work);
  return ps;
}

void power_spectrum(std::span<const double> x, std::size_t fft_size,
                    std::span<double> out,
                    std::span<std::complex<double>> work) {
  check_spectrum_args(x, fft_size);
  const std::size_t nbins = fft_size / 2 + 1;
  if (out.size() < nbins) {
    throw std::invalid_argument("power_spectrum: output too small");
  }
  if (fft_size == 1) {
    const double v = x.empty() ? 0.0 : x[0];
    out[0] = v * v;
    return;
  }
  // `work` carries both the half-size FFT scratch and the one-sided
  // complex spectrum: fft_size/2 + (fft_size/2 + 1) elements total.
  if (work.size() < fft_size + 1) {
    throw std::invalid_argument("power_spectrum: work buffer too small");
  }
  const std::span<std::complex<double>> scratch = work.first(fft_size / 2);
  const std::span<std::complex<double>> spec =
      work.subspan(fft_size / 2, nbins);
  RfftPlan::cached(fft_size)->execute(x, spec, scratch);
  for (std::size_t k = 0; k < nbins; ++k) out[k] = std::norm(spec[k]);
}

std::vector<double> power_spectrum_ref(std::span<const double> x,
                                       std::size_t fft_size) {
  check_spectrum_args(x, fft_size);
  std::vector<std::complex<double>> buf(fft_size);
  for (std::size_t i = 0; i < x.size(); ++i) buf[i] = {x[i], 0.0};
  fft_inplace(buf);
  std::vector<double> mag(fft_size / 2 + 1);
  for (std::size_t k = 0; k < mag.size(); ++k) {
    mag[k] = std::abs(buf[k]);
    mag[k] = mag[k] * mag[k];
  }
  return mag;
}

std::vector<double> autocorrelation(std::span<const double> x) {
  if (x.empty()) return {};
  const std::size_t n = next_pow2(2 * x.size());
  std::vector<double> r(x.size());
  std::vector<std::complex<double>> work(n + 1);
  autocorrelation(x, r, work);
  return r;
}

void autocorrelation(std::span<const double> x, std::span<double> r,
                     std::span<std::complex<double>> work) {
  if (x.empty()) return;
  if (r.size() > x.size()) {
    throw std::invalid_argument("autocorrelation: r longer than x");
  }
  // Zero-pad to 2N to turn circular correlation into linear correlation.
  // Both directions ride the real-input plan: the power spectrum of a
  // real signal is real and even, so the inverse is a real signal too
  // and the half-size packed transforms apply on the way back as well.
  const std::size_t n = next_pow2(2 * x.size());
  const std::size_t half = n / 2;
  if (work.size() < n + 1) {
    throw std::invalid_argument("autocorrelation: work buffer too small");
  }
  const auto plan = RfftPlan::cached(n);
  const std::span<std::complex<double>> spec = work.first(half + 1);
  const std::span<std::complex<double>> scratch = work.subspan(half + 1, half);
  plan->execute(x, spec, scratch);
  for (std::size_t k = 0; k <= half; ++k) {
    spec[k] = {std::norm(spec[k]), 0.0};
  }
  // The requested lags (r.size() <= x.size() <= n/2) are the leading
  // samples of the inverse; inverse() applies the normalization.
  plan->inverse(spec, r, scratch);
}

std::vector<double> autocorrelation_ref(std::span<const double> x) {
  if (x.empty()) return {};
  const std::size_t n = next_pow2(2 * x.size());
  std::vector<std::complex<double>> buf(n);
  for (std::size_t i = 0; i < n; ++i) {
    buf[i] = {i < x.size() ? x[i] : 0.0, 0.0};
  }
  fft_inplace(buf);
  for (auto& c : buf) c = c * std::conj(c);
  fft_inplace(buf, /*inverse=*/true);
  std::vector<double> r(x.size());
  const double scale = 1.0 / static_cast<double>(n);
  for (std::size_t k = 0; k < r.size(); ++k) r[k] = buf[k].real() * scale;
  return r;
}

}  // namespace affectsys::signal
