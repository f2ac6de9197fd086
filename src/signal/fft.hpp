// Radix-2 FFT and helpers for spectral feature extraction.
//
// This is the lowest layer of the DSP substrate used by the affect
// classifier front-end (MFCC, spectral magnitude).  Only power-of-two
// transform sizes are supported; callers zero-pad via next_pow2().
//
// Hot loops and std::complex.  The three loops every spectral feature
// runs through (FftPlan's butterflies, RfftPlan's Hermitian unpack and
// its inverse pack) do explicit real arithmetic on the interleaved
// doubles instead of calling std::complex operator*.  That operator
// follows C Annex G: a product whose two parts both come out NaN is
// recomputed by a __muldc3 library call, which recovers infinities.
// The test and the call keep the compiler from vectorizing the loop;
// without them the butterflies vectorize.
//
// Operation-order rule, which keeps the results equal: spell each
// product a*b the way GCC lowers the complex multiply,
//   re = a.re*b.re - a.im*b.im,   im = a.re*b.im + a.im*b.re,
// and never negate a factor.  With FMA contraction on (GCC's default
// for C++ on FMA targets) the compiler fuses one product of each sum
// and rounds the other; the same spelling fuses the same product, so
// FftPlan forward and inverse equal the std::complex loop bit for bit
// (tests/test_kernels.cpp holds that loop as the oracle).  A negated
// factor broke this: spelling the inverse butterfly with wi = -w.im
// let GCC fold the negation and fuse the other product, which the
// oracle caught.  So the inverse transform reads a conjugated twiddle
// table, and RfftPlan::inverse carries its conjugate's sign in the
// sums.  RfftPlan is held to tolerances, not to the old bits: the old
// unpack's rounding depended on the inlining context it was compiled
// in.  std::fma is not used: without AFFECTSYS_ARCH_V3 it is a libm
// call, and there both sides round every product anyway.
//
// The one behaviour difference: for non-finite input (or a product
// that overflows) NaN propagates where Annex G would have recovered an
// infinity.  Served audio is always finite: the synthesizer's output,
// and audio faults only drop, zero, clamp or sample-and-hold samples.
#pragma once

#include <complex>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace affectsys::signal {

/// Smallest power of two >= n (n >= 1).
std::size_t next_pow2(std::size_t n);

/// Precomputed transform of one power-of-two size: the bit-reversal
/// permutation and per-stage twiddle tables (forward and conjugate).
/// Each twiddle is generated directly as exp(-2*pi*i*k/len)
/// (std::polar), not via the multiplicative `w *= wlen` recurrence the
/// unplanned kernel used — that recurrence accumulates one rounding
/// error per butterfly, which shows up as ~1e-10-level drift in long
/// transforms.  Feature extraction calls the FFT once per analysis
/// window, so planning also removes every per-call cos/sin evaluation
/// from the hot path.
///
/// The plan is immutable after construction; execute() is const and
/// safe to share across pool threads.
class FftPlan {
 public:
  /// @throws std::invalid_argument unless n is a power of two (n >= 1).
  explicit FftPlan(std::size_t n);

  std::size_t size() const { return n_; }

  /// In-place transform of a buffer of exactly size() samples.
  /// @throws std::invalid_argument on size mismatch
  void execute(std::span<std::complex<double>> data,
               bool inverse = false) const;
  void forward(std::span<std::complex<double>> data) const {
    execute(data, false);
  }
  /// Unscaled inverse transform (callers divide by size()).
  void inverse(std::span<std::complex<double>> data) const {
    execute(data, true);
  }

  /// Process-wide plan cache keyed by size; thread-safe.  The handful
  /// of distinct sizes in use (analysis windows, autocorrelation pads)
  /// keeps the cache tiny, and plans are shared, never evicted.
  static std::shared_ptr<const FftPlan> cached(std::size_t n);

 private:
  std::size_t n_;
  std::vector<std::uint32_t> bitrev_;
  /// Stage-major forward twiddles: for each len = 2,4,...,n the len/2
  /// factors exp(-2*pi*i*k/len); n-1 entries total.
  std::vector<std::complex<double>> twiddle_;
  /// Their conjugates, for the inverse: both directions then run the
  /// same butterfly loop, with no per-butterfly conj.
  std::vector<std::complex<double>> twiddle_inv_;
};

/// Real-input FFT plan: an N-point real transform computed as an
/// N/2-point complex FFT of the even/odd-packed signal plus Hermitian
/// unpacking, halving the butterfly work of the complex path for every
/// spectral-feature call.  Only the one-sided spectrum (bins 0..N/2) is
/// produced — exactly what power/magnitude consumers read.
///
/// The unpacking identity: with z[j] = x[2j] + i*x[2j+1] and Z = FFT(z),
///   X[k] = (Z[k] + conj(Z[N/2-k]))/2
///        + exp(-2*pi*i*k/N) * (Z[k] - conj(Z[N/2-k]))/(2i)
/// for k in [0, N/2], reading Z[N/2] as Z[0].  The twiddles
/// exp(-2*pi*i*k/N) are precomputed, so execute() does no trig.
///
/// Like FftPlan the plan is immutable after construction; execute() is
/// const and shares across threads.  The caller provides both the output
/// and the N/2-element scratch buffer, so steady-state use allocates
/// nothing (the workspace idiom of DESIGN.md "Kernel optimization").
class RfftPlan {
 public:
  /// @throws std::invalid_argument unless n is a power of two >= 2.
  explicit RfftPlan(std::size_t n);

  std::size_t size() const { return n_; }
  /// One-sided output bins: n/2 + 1.
  std::size_t bins() const { return n_ / 2 + 1; }
  /// Required scratch elements for execute(): n/2.
  std::size_t work_size() const { return n_ / 2; }

  /// One-sided spectrum of `x` zero-padded to size().  `out` receives
  /// bins() values; `work` must hold at least work_size() elements.
  /// @throws std::invalid_argument if x is longer than size() or a
  ///         buffer is too small
  void execute(std::span<const double> x, std::span<std::complex<double>> out,
               std::span<std::complex<double>> work) const;

  /// Inverse real FFT: reconstructs the real signal whose one-sided
  /// Hermitian spectrum is `spec` (bins() values, normalized like
  /// execute()'s output).  Packs the spectrum into an N/2-point complex
  /// sequence, runs one half-size inverse FFT, and interleaves —
  /// mirroring execute().  Writes min(size(), out.size()) leading
  /// samples, so callers needing only a prefix (autocorrelation lags)
  /// can pass a short buffer.  `spec` and `work` must not overlap;
  /// `work` needs work_size() elements.
  void inverse(std::span<const std::complex<double>> spec,
               std::span<double> out,
               std::span<std::complex<double>> work) const;

  /// Process-wide plan cache keyed by size; thread-safe (same policy as
  /// FftPlan::cached).
  static std::shared_ptr<const RfftPlan> cached(std::size_t n);

 private:
  std::size_t n_;
  std::shared_ptr<const FftPlan> half_;  ///< N/2-point complex plan
  /// exp(-2*pi*i*k/N) for k in [0, n/2] (unpacking twiddles).
  std::vector<std::complex<double>> unpack_;
};

/// In-place iterative radix-2 Cooley-Tukey FFT (via the cached plan for
/// the buffer's size).
/// @param data  complex buffer whose size must be a power of two
/// @param inverse  when true computes the unscaled inverse transform
/// @throws std::invalid_argument if size is not a power of two
void fft_inplace(std::span<std::complex<double>> data, bool inverse = false);

/// Forward FFT of a real signal, zero-padded to the next power of two.
/// Returns the full complex spectrum (size = padded length).
std::vector<std::complex<double>> fft_real(std::span<const double> x);

/// Allocation-free fft_real: computes the full complex spectrum of `x`
/// zero-padded to out.size() in place in `out` (whose size must be a
/// power of two >= x.size()).
void fft_real(std::span<const double> x, std::span<std::complex<double>> out);

/// Inverse FFT returning the real part, scaled by 1/N.
std::vector<double> ifft_real(std::span<const std::complex<double>> spectrum);

/// Magnitude of the one-sided spectrum (bins 0..N/2 inclusive) of a real
/// signal zero-padded to `fft_size` (must be a power of two >= x.size()).
/// Computed via RfftPlan; bit-identical to the span overload below.
std::vector<double> magnitude_spectrum(std::span<const double> x,
                                       std::size_t fft_size);

/// Allocation-free magnitude_spectrum: `out` receives fft_size/2 + 1
/// bins, `work` must hold at least fft_size + 1 complex elements (the
/// half-size FFT scratch plus the staged one-sided complex spectrum).
void magnitude_spectrum(std::span<const double> x, std::size_t fft_size,
                        std::span<double> out,
                        std::span<std::complex<double>> work);

/// Power spectrum |X[k]|^2 over the one-sided range, same layout as
/// magnitude_spectrum().
std::vector<double> power_spectrum(std::span<const double> x,
                                   std::size_t fft_size);

/// Allocation-free power_spectrum (same buffer contract as the
/// magnitude_spectrum span overload).
void power_spectrum(std::span<const double> x, std::size_t fft_size,
                    std::span<double> out,
                    std::span<std::complex<double>> work);

/// Reference power spectrum via the full complex FFT (the pre-RfftPlan
/// implementation).  Kept callable so bench_kernels and the kernel test
/// suite measure/validate the optimized path against it in-repo.
std::vector<double> power_spectrum_ref(std::span<const double> x,
                                       std::size_t fft_size);

/// Circular autocorrelation via FFT; r[k] for k in [0, x.size()).
/// Used by the pitch estimator.  Computed with the real-input plan in
/// both directions (forward RfftPlan, half-size packed inverse), so the
/// transforms are half the length of the complex path's.
std::vector<double> autocorrelation(std::span<const double> x);

/// Allocation-free autocorrelation: writes r[k] for k in [0, r.size())
/// (r.size() <= x.size()); `work` must hold next_pow2(2 * x.size()) + 1
/// complex elements (one-sided spectrum plus half-size scratch).
/// Bit-identical to the allocating overload.
void autocorrelation(std::span<const double> x, std::span<double> r,
                     std::span<std::complex<double>> work);

/// Reference autocorrelation via the full complex FFT (the pre-RfftPlan
/// implementation); agrees with autocorrelation() to rounding.  Kept
/// callable for bench_kernels and the kernel tolerance suite.
std::vector<double> autocorrelation_ref(std::span<const double> x);

}  // namespace affectsys::signal
