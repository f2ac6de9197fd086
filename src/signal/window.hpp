// Analysis windows and frame segmentation for short-time feature extraction.
#pragma once

#include <span>
#include <vector>

namespace affectsys::signal {

/// Hamming window coefficients of the given length (periodic form,
/// suitable for STFT analysis): the MFCC front end's analysis window.
std::vector<double> hamming_window(std::size_t length);

/// Multiplies `frame` elementwise by `window`; sizes must match.
void apply_window(std::span<double> frame, std::span<const double> window);

/// Splits `x` into overlapping frames of `frame_len` samples advancing by
/// `hop` samples.  The final partial frame is zero-padded.  Returns at
/// least one frame for non-empty input.
std::vector<std::vector<double>> frame_signal(std::span<const double> x,
                                              std::size_t frame_len,
                                              std::size_t hop);

/// Number of frames frame_signal() would produce for a signal of
/// `size` samples — lets callers reserve/iterate without materializing
/// the frame vectors (the zero-allocation feature path, and the
/// reserve() fix in MfccExtractor::extract).
std::size_t frame_count(std::size_t size, std::size_t frame_len,
                        std::size_t hop);

/// Copies frame `t` (samples [t*hop, t*hop + buf.size())) of `x` into
/// `buf`, zero-padding past the end of the signal — the allocation-free
/// equivalent of frame_signal()[t] when buf.size() == frame_len.
void copy_frame(std::span<const double> x, std::size_t t, std::size_t hop,
                std::span<double> buf);

}  // namespace affectsys::signal
