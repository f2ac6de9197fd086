#include "nn/pooling.hpp"

#include <stdexcept>

namespace affectsys::nn {

MaxPool1D::MaxPool1D(std::size_t pool) : pool_(pool) {
  if (pool == 0) throw std::invalid_argument("MaxPool1D: pool must be > 0");
}

Matrix MaxPool1D::forward(const Matrix& x) {
  input_ = x;
  const std::size_t T = x.rows();
  const std::size_t out_t = (T + pool_ - 1) / pool_;
  Matrix out(out_t, x.cols());
  argmax_.assign(out_t * x.cols(), 0);
  for (std::size_t ot = 0; ot < out_t; ++ot) {
    const std::size_t begin = ot * pool_;
    const std::size_t end = std::min(begin + pool_, T);
    for (std::size_t c = 0; c < x.cols(); ++c) {
      std::size_t best = begin;
      for (std::size_t t = begin + 1; t < end; ++t) {
        if (x(t, c) > x(best, c)) best = t;
      }
      out(ot, c) = x(best, c);
      argmax_[ot * x.cols() + c] = best;
    }
  }
  return out;
}

Matrix MaxPool1D::backward(const Matrix& grad_out) {
  Matrix grad_in(input_.rows(), input_.cols());
  for (std::size_t ot = 0; ot < grad_out.rows(); ++ot) {
    for (std::size_t c = 0; c < grad_out.cols(); ++c) {
      grad_in(argmax_[ot * grad_out.cols() + c], c) += grad_out(ot, c);
    }
  }
  return grad_in;
}

Matrix LastTimestep::forward(const Matrix& x) {
  if (x.rows() == 0) throw std::invalid_argument("LastTimestep: empty input");
  in_rows_ = x.rows();
  Matrix out(1, x.cols());
  for (std::size_t c = 0; c < x.cols(); ++c) out(0, c) = x(x.rows() - 1, c);
  return out;
}

Matrix LastTimestep::backward(const Matrix& grad_out) {
  Matrix grad_in(in_rows_, grad_out.cols());
  for (std::size_t c = 0; c < grad_out.cols(); ++c) {
    grad_in(in_rows_ - 1, c) = grad_out(0, c);
  }
  return grad_in;
}

Matrix Flatten::forward(const Matrix& x) {
  in_rows_ = x.rows();
  in_cols_ = x.cols();
  Matrix out(1, x.size());
  auto flat = out.flat();
  auto src = x.flat();
  for (std::size_t i = 0; i < src.size(); ++i) flat[i] = src[i];
  return out;
}

Matrix Flatten::backward(const Matrix& grad_out) {
  Matrix grad_in(in_rows_, in_cols_);
  auto dst = grad_in.flat();
  auto src = grad_out.flat();
  if (src.size() != dst.size()) {
    throw std::invalid_argument("Flatten::backward: size mismatch");
  }
  for (std::size_t i = 0; i < src.size(); ++i) dst[i] = src[i];
  return grad_in;
}

}  // namespace affectsys::nn
