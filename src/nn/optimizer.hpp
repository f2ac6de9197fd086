// The optimizer nn::train uses, and global-norm gradient clipping.
#pragma once

#include <unordered_map>
#include <vector>

#include "nn/layer.hpp"

namespace affectsys::nn {

/// Adam (Kingma & Ba 2015) with bias correction.
class Adam {
 public:
  explicit Adam(float lr, float beta1 = 0.9f, float beta2 = 0.999f,
                float eps = 1e-8f)
      : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {}

  /// Applies one update using each param's accumulated gradient, then
  /// zeroes the gradients.
  void step(const std::vector<Param*>& params);

 private:
  struct State {
    Matrix m;
    Matrix v;
  };
  float lr_, beta1_, beta2_, eps_;
  long t_ = 0;
  std::unordered_map<Param*, State> state_;
};

/// Global-norm gradient clipping; returns the pre-clip norm.
float clip_gradients(const std::vector<Param*>& params, float max_norm);

}  // namespace affectsys::nn
