// Post-training 8-bit quantization (Fig 3(c)/(d) of the paper).
//
// Weights are quantized symmetrically to int8 with either one scale per
// tensor or one scale per output channel (column).  Two execution styles
// are provided:
//   - Simulated: quantize_model_inplace() replaces every weight with its
//     dequantized value, so the float path measures exactly the accuracy
//     impact of weight rounding (TFLite-style post-training weight
//     quantization, as the paper used).
//   - Real int8 execution: QuantizedMlp runs a Flatten-headed dense
//     stack end-to-end on int8 — per-row activation scales, per-column
//     weight scales, int32 accumulation through the register-blocked
//     int8 GEMM in nn/matrix, float rescale + bias + ReLU between
//     layers.  This is the serve ladder's middle rung.
//
// truncate_mantissa() is the companion approximate-storage knob: it
// zeroes low mantissa bits of stored feature rows (staged windows) so
// approximate buffers compress/dedupe better, with a hard byte-identity
// guarantee at 0 bits.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "nn/model.hpp"

namespace affectsys::nn {

enum class QuantGranularity { kPerTensor, kPerChannel };

/// One quantized parameter tensor.
struct QuantizedTensor {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<std::int8_t> values;  ///< row-major, rows*cols entries
  std::vector<float> scales;        ///< 1 (per-tensor) or cols (per-channel)

  /// Dequantized float matrix.
  Matrix dequantize() const;
  /// Storage bytes: int8 payload + float scales.
  std::size_t bytes() const {
    return values.size() + scales.size() * sizeof(float);
  }
};

/// Quantizes a float matrix.
QuantizedTensor quantize_tensor(const Matrix& m, QuantGranularity g);

/// Quantizes every parameter of `model` in place (weights are replaced by
/// their dequantized values).  Returns total quantized storage in bytes.
std::size_t quantize_model_inplace(Sequential& model, QuantGranularity g);

/// Largest absolute elementwise error introduced by quantizing `m`.
float max_quantization_error(const Matrix& m, QuantGranularity g);

/// Per-row symmetrically quantized activations: row r of the source
/// matrix maps to int8 values with scale scales[r] (max|row| / 127).  An
/// all-zero row gets scale 0 and all-zero values — dequantizing with a
/// 0 scale is exact for it, so zero-range rows survive the round trip.
struct RowQuantized {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<std::int8_t> values;  ///< row-major
  std::vector<float> scales;        ///< one per row
};

/// Quantizes `m` per row into `q`, reusing its capacity (no allocation
/// once warm).
void quantize_rows_into(const Matrix& m, RowQuantized& q);

/// Scratch for QuantizedMlp::forward — all buffers recycled across
/// calls, so steady-state quantized inference allocates nothing.
struct QuantWorkspace {
  RowQuantized act;                ///< quantized activations per layer
  std::vector<std::int32_t> acc;   ///< int8 GEMM accumulator
  Matrix a;                        ///< float activation ping
  Matrix b;                        ///< float activation pong
};

/// End-to-end int8 inference for a Flatten-headed dense/ReLU stack (the
/// shape the MLP classifier and the serve batcher already require).
/// Weights are captured once with per-column scales; each forward
/// quantizes its activations per row, runs the int8 GEMM, and rescales
/// with scale_row * scale_col before the float bias add and ReLU.
class QuantizedMlp {
 public:
  /// Captures `model`'s weights.  Empty when the model is not a
  /// flatten -> {dense [,relu]}* stack (CNN/LSTM callers keep fp32).
  static std::optional<QuantizedMlp> from(Sequential& model);

  /// Logits for a stacked input (batch x input_features floats, one
  /// flattened sample per row).  The returned reference lives in `ws`
  /// and stays valid until the next forward on the same workspace.
  const Matrix& forward(const Matrix& x, QuantWorkspace& ws) const;

  std::size_t input_features() const { return input_features_; }
  std::size_t output_features() const { return output_features_; }
  std::size_t layer_count() const { return layers_.size(); }
  /// int8 payload + scale/bias storage.
  std::size_t bytes() const;

 private:
  struct DenseLayer {
    QuantizedTensor weight;   ///< (in x out), per-column scales
    std::vector<float> bias;  ///< out
    bool relu = false;        ///< fused ReLU after this layer
  };

  std::vector<DenseLayer> layers_;
  std::size_t input_features_ = 0;
  std::size_t output_features_ = 0;
};

/// Zeroes the low `bits` mantissa bits (clamped to 23) of every finite
/// value in `v` — the bit-truncated approximate storage knob.  bits == 0
/// returns without touching memory, so untruncated storage is
/// byte-identical to a build without this call; the operation is
/// idempotent (truncating twice equals truncating once).  NaN/inf are
/// left untouched (clearing a NaN's mantissa could mint an inf).
void truncate_mantissa(std::span<float> v, unsigned bits);

}  // namespace affectsys::nn
