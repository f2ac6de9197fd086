#include "nn/loss.hpp"

#include <cmath>
#include <stdexcept>

#include "nn/activation.hpp"

namespace affectsys::nn {

LossResult softmax_cross_entropy(const Matrix& logits, std::size_t target) {
  if (logits.rows() != 1) {
    throw std::invalid_argument(
        "softmax_cross_entropy: expected a single logits row");
  }
  if (target >= logits.cols()) {
    throw std::invalid_argument("softmax_cross_entropy: bad target index");
  }
  LossResult res;
  res.grad = logits;
  auto probs = res.grad.flat();
  softmax_inplace(probs);
  res.loss = -std::log(std::max(probs[target], 1e-12f));
  probs[target] -= 1.0f;  // dL/dlogits = p - onehot
  return res;
}

std::vector<float> softmax_probs(const Matrix& logits) {
  std::vector<float> p;
  softmax_probs_into(logits.flat(), p);
  return p;
}

void softmax_probs_into(std::span<const float> logits,
                        std::vector<float>& out) {
  out.assign(logits.begin(), logits.end());
  softmax_inplace(out);
}

std::size_t argmax(std::span<const float> v) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] > v[best]) best = i;
  }
  return best;
}

}  // namespace affectsys::nn
