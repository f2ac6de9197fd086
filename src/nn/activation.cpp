#include "nn/activation.hpp"

#include <algorithm>
#include <cmath>

namespace affectsys::nn {

float relu(float x) { return x > 0.0f ? x : 0.0f; }

float sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

void softmax_inplace(std::span<float> logits) {
  if (logits.empty()) return;
  const float mx = *std::max_element(logits.begin(), logits.end());
  float sum = 0.0f;
  for (float& v : logits) {
    v = std::exp(v - mx);
    sum += v;
  }
  for (float& v : logits) v /= sum;
}

Matrix Relu::forward(const Matrix& x) {
  Matrix out = x;
  for (float& v : out.flat()) v = relu(v);
  output_ = out;
  return out;
}

void Relu::forward_infer(const Matrix& x, Matrix& out) {
  out.reshape(x.rows(), x.cols());
  const auto in = x.flat();
  auto o = out.flat();
  for (std::size_t i = 0; i < in.size(); ++i) o[i] = relu(in[i]);
}

Matrix Relu::backward(const Matrix& grad_out) {
  Matrix grad_in = grad_out;
  auto g = grad_in.flat();
  auto y = output_.flat();
  for (std::size_t i = 0; i < g.size(); ++i) g[i] = y[i] > 0.0f ? g[i] : 0.0f;
  return grad_in;
}

}  // namespace affectsys::nn
