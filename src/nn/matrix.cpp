#include "nn/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/thread_pool.hpp"

namespace affectsys::nn {
namespace {

/// Below this many multiply-adds a GEMM stays on the caller thread:
/// pool dispatch costs more than the loop.  Classifier-scale products
/// (hundreds of rows/cols) clear it; per-timestep recurrent steps
/// don't.
constexpr std::size_t kParallelFlopThreshold = 1u << 18;

/// k-tile edge for the blocked kernel: 64 rows of a float matrix with
/// a few hundred columns stay L1/L2-resident while a row block streams
/// over them.  Tiling does not reorder the per-element accumulation
/// (k still ascends within each output row), so blocked == unblocked
/// bit-for-bit.
constexpr std::size_t kKBlock = 64;

/// Rows per register block in the matmul micro-kernel below (kMr).
constexpr std::size_t kRowBlock = 4;

std::size_t row_grain(std::size_t rows) {
  // Aim for a few chunks per worker so the tail imbalance stays small.
  const std::size_t workers = std::max<std::size_t>(1, core::global_threads());
  std::size_t grain = std::max<std::size_t>(1, rows / (4 * workers));
  // Never split below the 4-row register block: a finer grain would
  // route every row through the kernel's single-row tail, forfeiting
  // the weight-reuse the block exists for (batched inference on a
  // low-thread host hits exactly this).  Chunk boundaries change, but
  // the per-element accumulation order does not, so results stay
  // bit-identical.
  if (rows >= kRowBlock) {
    grain = (grain + kRowBlock - 1) / kRowBlock * kRowBlock;
  }
  return grain;
}

}  // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols, float fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::zeros(std::size_t rows, std::size_t cols) {
  return Matrix(rows, cols, 0.0f);
}

Matrix Matrix::row_vector(std::span<const float> v) {
  Matrix m(1, v.size());
  for (std::size_t i = 0; i < v.size(); ++i) m(0, i) = v[i];
  return m;
}

float& Matrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
  return (*this)(r, c);
}

float Matrix::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
  return (*this)(r, c);
}

Matrix& Matrix::operator+=(const Matrix& o) {
  if (!same_shape(o)) throw std::invalid_argument("Matrix+=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& o) {
  if (!same_shape(o)) throw std::invalid_argument("Matrix-=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(float s) {
  for (float& v : data_) v *= s;
  return *this;
}

void Matrix::fill(float v) {
  for (float& x : data_) x = v;
}

void Matrix::reshape(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

Matrix Matrix::matmul(const Matrix& o) const {
  Matrix out;
  matmul_into(o, out);
  return out;
}

void Matrix::matmul_into(const Matrix& o, Matrix& out) const {
  if (cols_ != o.rows_) throw std::invalid_argument("matmul: shape mismatch");
  if (&out == this || &out == &o) {
    throw std::invalid_argument("matmul_into: output aliases an operand");
  }
  // Same zero-then-accumulate the allocating form performed via the
  // zero-initializing constructor, so both paths are bit-identical.
  out.reshape(rows_, o.cols_);
  out.fill(0.0f);
  const std::size_t oc = o.cols_;
  const float* __restrict adata = data_.data();
  const float* __restrict bdata = o.data_.data();
  float* __restrict odata = out.data_.data();

  // Register-blocked micro-kernel: kMr output rows x kNr output columns
  // accumulate in a local register tile across one k-tile, then flush
  // with out += acc.  Every output element — whether it lands in the
  // 4-row block, the 1-row row tail, or the scalar column tail —
  // performs the identical per-element sequence (acc = 0; acc += a*b
  // for k ascending through the tile; out += acc), so the result is
  // independent of where parallel_for splits the row range and serial
  // and threaded builds match bit-for-bit.
  // 4x32 floats of accumulator exactly fill AVX2's sixteen 8-lane
  // registers (the ISA the build targets by default, see
  // AFFECTSYS_ARCH_V3); twelve-plus independent FMA chains are what
  // hides the 4-5 cycle FMA latency behind both FMA ports.
  constexpr std::size_t kMr = kRowBlock;
  constexpr std::size_t kNr = 32;
  auto kernel = [&](std::size_t r0, std::size_t r1) {
    for (std::size_t k0 = 0; k0 < cols_; k0 += kKBlock) {
      const std::size_t k1 = std::min(cols_, k0 + kKBlock);
      std::size_t r = r0;
      for (; r + kMr <= r1; r += kMr) {
        const float* __restrict a0 = adata + (r + 0) * cols_;
        const float* __restrict a1 = adata + (r + 1) * cols_;
        const float* __restrict a2 = adata + (r + 2) * cols_;
        const float* __restrict a3 = adata + (r + 3) * cols_;
        float* __restrict o0 = odata + (r + 0) * oc;
        float* __restrict o1 = odata + (r + 1) * oc;
        float* __restrict o2 = odata + (r + 2) * oc;
        float* __restrict o3 = odata + (r + 3) * oc;
        std::size_t c0 = 0;
        for (; c0 + kNr <= oc; c0 += kNr) {
          float acc[kMr][kNr] = {};
          for (std::size_t k = k0; k < k1; ++k) {
            const float* __restrict b = bdata + k * oc + c0;
            const float av0 = a0[k], av1 = a1[k], av2 = a2[k], av3 = a3[k];
            for (std::size_t j = 0; j < kNr; ++j) {
              acc[0][j] += av0 * b[j];
              acc[1][j] += av1 * b[j];
              acc[2][j] += av2 * b[j];
              acc[3][j] += av3 * b[j];
            }
          }
          for (std::size_t j = 0; j < kNr; ++j) {
            o0[c0 + j] += acc[0][j];
            o1[c0 + j] += acc[1][j];
            o2[c0 + j] += acc[2][j];
            o3[c0 + j] += acc[3][j];
          }
        }
        for (std::size_t c = c0; c < oc; ++c) {
          float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
          for (std::size_t k = k0; k < k1; ++k) {
            const float bv = bdata[k * oc + c];
            s0 += a0[k] * bv;
            s1 += a1[k] * bv;
            s2 += a2[k] * bv;
            s3 += a3[k] * bv;
          }
          o0[c] += s0;
          o1[c] += s1;
          o2[c] += s2;
          o3[c] += s3;
        }
      }
      for (; r < r1; ++r) {
        const float* __restrict arow = adata + r * cols_;
        float* __restrict orow_out = odata + r * oc;
        std::size_t c0 = 0;
        for (; c0 + kNr <= oc; c0 += kNr) {
          float acc[kNr] = {};
          for (std::size_t k = k0; k < k1; ++k) {
            const float* __restrict b = bdata + k * oc + c0;
            const float av = arow[k];
            for (std::size_t j = 0; j < kNr; ++j) acc[j] += av * b[j];
          }
          for (std::size_t j = 0; j < kNr; ++j) orow_out[c0 + j] += acc[j];
        }
        for (std::size_t c = c0; c < oc; ++c) {
          float s = 0.0f;
          for (std::size_t k = k0; k < k1; ++k) {
            s += arow[k] * bdata[k * oc + c];
          }
          orow_out[c] += s;
        }
      }
    }
  };
  // The serial short-circuit checks the worker count too: wrapping the
  // kernel in std::function heap-allocates (the capture outgrows the
  // small-buffer slot), which the pool-less edge configuration must not
  // pay on its inference hot path (the serve layer's zero-steady-state-
  // allocation contract pins this).
  if (core::global_threads() > 0 &&
      rows_ * cols_ * o.cols_ >= kParallelFlopThreshold) {
    core::parallel_for(0, rows_, row_grain(rows_), kernel);
  } else {
    kernel(0, rows_);
  }
}

Matrix Matrix::matmul_reference(const Matrix& o) const {
  if (cols_ != o.rows_) throw std::invalid_argument("matmul: shape mismatch");
  Matrix out(rows_, o.cols_);
  // Pre-optimization kernel: k-tiled axpy accumulating straight into
  // the output row, with the sparse-activation zero skip.  Kept
  // callable as the bench_kernels baseline and the tolerance reference
  // for the micro-kernel above.
  auto kernel = [&](std::size_t r0, std::size_t r1) {
    for (std::size_t k0 = 0; k0 < cols_; k0 += kKBlock) {
      const std::size_t k1 = std::min(cols_, k0 + kKBlock);
      for (std::size_t r = r0; r < r1; ++r) {
        float* out_row = &out.data_[r * o.cols_];
        for (std::size_t k = k0; k < k1; ++k) {
          const float a = (*this)(r, k);
          if (a == 0.0f) continue;
          const float* orow = &o.data_[k * o.cols_];
          for (std::size_t c = 0; c < o.cols_; ++c) out_row[c] += a * orow[c];
        }
      }
    }
  };
  if (rows_ * cols_ * o.cols_ >= kParallelFlopThreshold) {
    core::parallel_for(0, rows_, row_grain(rows_), kernel);
  } else {
    kernel(0, rows_);
  }
  return out;
}

Matrix Matrix::transposed_matmul(const Matrix& o) const {
  if (rows_ != o.rows_) {
    throw std::invalid_argument("transposed_matmul: shape mismatch");
  }
  Matrix out(cols_, o.cols_);
  for (std::size_t k = 0; k < rows_; ++k) {
    for (std::size_t r = 0; r < cols_; ++r) {
      const float a = (*this)(k, r);
      if (a == 0.0f) continue;
      const float* orow = &o.data_[k * o.cols_];
      float* out_row = &out.data_[r * o.cols_];
      for (std::size_t c = 0; c < o.cols_; ++c) out_row[c] += a * orow[c];
    }
  }
  return out;
}

Matrix Matrix::matmul_transposed(const Matrix& o) const {
  if (cols_ != o.cols_) {
    throw std::invalid_argument("matmul_transposed: shape mismatch");
  }
  Matrix out(rows_, o.rows_);
  // Four dot products share each arow[k] load.  Every output element
  // still owns one scalar accumulator over the full k range ascending,
  // so the blocked and unblocked loops agree bit-for-bit (and the
  // result stays independent of the parallel_for row partition).
  auto kernel = [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      const float* __restrict arow = &data_[r * cols_];
      float* __restrict orow = &out.data_[r * o.rows_];
      std::size_t c = 0;
      for (; c + 4 <= o.rows_; c += 4) {
        const float* __restrict b0 = &o.data_[(c + 0) * o.cols_];
        const float* __restrict b1 = &o.data_[(c + 1) * o.cols_];
        const float* __restrict b2 = &o.data_[(c + 2) * o.cols_];
        const float* __restrict b3 = &o.data_[(c + 3) * o.cols_];
        float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
        for (std::size_t k = 0; k < cols_; ++k) {
          const float av = arow[k];
          s0 += av * b0[k];
          s1 += av * b1[k];
          s2 += av * b2[k];
          s3 += av * b3[k];
        }
        orow[c + 0] = s0;
        orow[c + 1] = s1;
        orow[c + 2] = s2;
        orow[c + 3] = s3;
      }
      for (; c < o.rows_; ++c) {
        const float* __restrict brow = &o.data_[c * o.cols_];
        float acc = 0.0f;
        for (std::size_t k = 0; k < cols_; ++k) acc += arow[k] * brow[k];
        orow[c] = acc;
      }
    }
  };
  if (rows_ * cols_ * o.rows_ >= kParallelFlopThreshold) {
    core::parallel_for(0, rows_, row_grain(rows_), kernel);
  } else {
    kernel(0, rows_);
  }
  return out;
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

void Matrix::init_kaiming(std::mt19937& rng, std::size_t fan_in) {
  const float bound =
      std::sqrt(6.0f / static_cast<float>(fan_in == 0 ? 1 : fan_in));
  std::uniform_real_distribution<float> dist(-bound, bound);
  for (float& v : data_) v = dist(rng);
}

void Matrix::init_xavier(std::mt19937& rng, std::size_t fan_in,
                         std::size_t fan_out) {
  const float bound =
      std::sqrt(6.0f / static_cast<float>(fan_in + fan_out == 0
                                              ? 1
                                              : fan_in + fan_out));
  std::uniform_real_distribution<float> dist(-bound, bound);
  for (float& v : data_) v = dist(rng);
}

}  // namespace affectsys::nn
