#include "nn/optimizer.hpp"

#include <cmath>

namespace affectsys::nn {

void Adam::step(const std::vector<Param*>& params) {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (Param* p : params) {
    auto [it, inserted] = state_.try_emplace(
        p, State{Matrix(p->value.rows(), p->value.cols()),
                 Matrix(p->value.rows(), p->value.cols())});
    auto m = it->second.m.flat();
    auto v = it->second.v.flat();
    auto g = p->grad.flat();
    auto w = p->value.flat();
    for (std::size_t i = 0; i < w.size(); ++i) {
      m[i] = beta1_ * m[i] + (1.0f - beta1_) * g[i];
      v[i] = beta2_ * v[i] + (1.0f - beta2_) * g[i] * g[i];
      const float mhat = m[i] / bc1;
      const float vhat = v[i] / bc2;
      w[i] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
    p->zero_grad();
  }
}

float clip_gradients(const std::vector<Param*>& params, float max_norm) {
  double sq = 0.0;
  for (Param* p : params) {
    for (float g : p->grad.flat()) sq += static_cast<double>(g) * g;
  }
  const auto norm = static_cast<float>(std::sqrt(sq));
  if (norm > max_norm && norm > 0.0f) {
    const float scale = max_norm / norm;
    for (Param* p : params) {
      for (float& g : p->grad.flat()) g *= scale;
    }
  }
  return norm;
}

}  // namespace affectsys::nn
