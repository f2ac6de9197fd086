// Softmax cross-entropy loss for single-label classification.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "nn/matrix.hpp"

namespace affectsys::nn {

struct LossResult {
  float loss = 0.0f;
  Matrix grad;  ///< dL/d(logits), same shape as the logits
};

/// Softmax + cross-entropy over a (1, num_classes) logits row.
/// @param target  true class index
LossResult softmax_cross_entropy(const Matrix& logits, std::size_t target);

/// Softmax probabilities of a logits row (convenience for inference).
std::vector<float> softmax_probs(const Matrix& logits);

/// Softmax into a caller-owned vector (recycled capacity — the
/// steady-state serve path's zero-allocation variant).  Bit-identical
/// to softmax_probs(), which wraps this.
void softmax_probs_into(std::span<const float> logits,
                        std::vector<float>& out);

/// Index of the largest logit.
std::size_t argmax(std::span<const float> v);

}  // namespace affectsys::nn
