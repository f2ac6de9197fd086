// Dense row-major float matrix — the only tensor type used by the NN
// substrate.  A sequence sample is a Matrix with one row per timestep.
#pragma once

#include <cstddef>
#include <random>
#include <span>
#include <vector>

namespace affectsys::nn {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f);

  static Matrix zeros(std::size_t rows, std::size_t cols);
  /// Single-row matrix wrapping a vector.
  static Matrix row_vector(std::span<const float> v);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  float operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  /// Checked element access.
  float& at(std::size_t r, std::size_t c);
  float at(std::size_t r, std::size_t c) const;

  std::span<float> row(std::size_t r) { return {&data_[r * cols_], cols_}; }
  std::span<const float> row(std::size_t r) const {
    return {&data_[r * cols_], cols_};
  }
  std::span<float> flat() { return data_; }
  std::span<const float> flat() const { return data_; }

  Matrix& operator+=(const Matrix& o);
  Matrix& operator-=(const Matrix& o);
  Matrix& operator*=(float s);
  void fill(float v);

  /// Re-dimensions to (rows x cols) without shrinking the underlying
  /// capacity — element values are unspecified afterwards (callers
  /// overwrite or fill).  The zero-allocation inference path uses this
  /// to recycle one scratch matrix across shapes.
  void reshape(std::size_t rows, std::size_t cols);

  /// this (r x k) times o (k x c) -> (r x c).
  Matrix matmul(const Matrix& o) const;
  /// matmul writing into a caller-owned output (recycled capacity, no
  /// allocation once warm).  Bit-identical to matmul(), which wraps
  /// this.  `out` must not alias either operand.
  void matmul_into(const Matrix& o, Matrix& out) const;
  /// Pre-optimization matmul kernel (k-tiled axpy with zero skip).
  /// Same shape contract as matmul(); results agree to float rounding
  /// (the micro-kernel accumulates each k-tile in registers).  Kept for
  /// bench_kernels and the kernel tolerance suite.
  Matrix matmul_reference(const Matrix& o) const;
  /// this^T (k x r) times o — avoids materializing the transpose.
  Matrix transposed_matmul(const Matrix& o) const;
  /// this (r x k) times o^T (c x k) -> (r x c).
  Matrix matmul_transposed(const Matrix& o) const;
  Matrix transposed() const;

  /// Kaiming-uniform initialization with the given fan-in.
  void init_kaiming(std::mt19937& rng, std::size_t fan_in);
  /// Xavier/Glorot-uniform initialization.
  void init_xavier(std::mt19937& rng, std::size_t fan_in,
                   std::size_t fan_out);

  bool same_shape(const Matrix& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

}  // namespace affectsys::nn
