// Post-training 8-bit quantization (Fig 3(c)/(d) of the paper).
//
// Weights are quantized symmetrically to int8 with one scale per tensor.
// Execution is simulated: quantize_model_inplace() replaces every weight
// with its dequantized value, so the float path measures exactly the
// accuracy impact of weight rounding (TFLite-style post-training weight
// quantization, as the paper used).
#pragma once

#include <cstdint>
#include <vector>

#include "nn/model.hpp"

namespace affectsys::nn {

/// One quantized parameter tensor.
struct QuantizedTensor {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<std::int8_t> values;  ///< row-major, rows*cols entries
  float scale = 0.0f;               ///< value = int8 * scale

  /// Dequantized float matrix.
  Matrix dequantize() const;
  /// Storage bytes: int8 payload + the float scale.
  std::size_t bytes() const { return values.size() + sizeof(float); }
};

/// Quantizes a float matrix.
QuantizedTensor quantize_tensor(const Matrix& m);

/// Quantizes every parameter of `model` in place (weights are replaced by
/// their dequantized values).  Returns total quantized storage in bytes.
std::size_t quantize_model_inplace(Sequential& model);

/// Largest absolute elementwise error introduced by quantizing `m`.
float max_quantization_error(const Matrix& m);

}  // namespace affectsys::nn
