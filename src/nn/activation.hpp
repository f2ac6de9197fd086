// The ReLU layer and the elementwise functions the layers share.
#pragma once

#include "nn/layer.hpp"

namespace affectsys::nn {

float relu(float x);
/// Logistic function (the LSTM's gates; std::tanh is used directly for
/// its candidate and output).
float sigmoid(float x);

/// Numerically stable softmax over a row vector, in place.
void softmax_inplace(std::span<float> logits);

/// Elementwise ReLU, the activation of every classifier build_model()
/// constructs.  Serialized as "relu".
class Relu : public Layer {
 public:
  Matrix forward(const Matrix& x) override;
  void forward_infer(const Matrix& x, Matrix& out) override;
  Matrix backward(const Matrix& grad_out) override;
  std::string kind() const override { return "relu"; }

 private:
  Matrix output_;  ///< cached activations (the derivative reads y > 0)
};

}  // namespace affectsys::nn
