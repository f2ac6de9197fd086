#include "nn/dense.hpp"

namespace affectsys::nn {

Dense::Dense(std::size_t in_features, std::size_t out_features,
             std::mt19937& rng)
    : weight_("weight", in_features, out_features),
      bias_("bias", 1, out_features) {
  weight_.value.init_kaiming(rng, in_features);
}

Matrix Dense::forward(const Matrix& x) {
  input_ = x;
  Matrix out = x.matmul(weight_.value);
  for (std::size_t r = 0; r < out.rows(); ++r) {
    auto row = out.row(r);
    for (std::size_t c = 0; c < out.cols(); ++c) row[c] += bias_.value(0, c);
  }
  return out;
}

void Dense::forward_infer(const Matrix& x, Matrix& out) {
  // Same GEMM + bias adds as forward(), minus the input_ backward
  // cache and with the output recycled — bit-identical by matmul_into's
  // contract.
  x.matmul_into(weight_.value, out);
  for (std::size_t r = 0; r < out.rows(); ++r) {
    auto row = out.row(r);
    for (std::size_t c = 0; c < out.cols(); ++c) row[c] += bias_.value(0, c);
  }
}

Matrix Dense::backward(const Matrix& grad_out) {
  // dW = x^T * gOut ; db = column sums of gOut ; dX = gOut * W^T
  weight_.grad.add_transposed_matmul(input_, grad_out);
  for (std::size_t r = 0; r < grad_out.rows(); ++r) {
    auto row = grad_out.row(r);
    for (std::size_t c = 0; c < grad_out.cols(); ++c) {
      bias_.grad(0, c) += row[c];
    }
  }
  return grad_out.matmul_transposed(weight_.value);
}

}  // namespace affectsys::nn
