#include "nn/quantize.hpp"

#include <algorithm>
#include <cmath>

namespace affectsys::nn {
namespace {

std::int8_t quantize_value(float v, float scale) {
  if (scale <= 0.0f) return 0;
  const float q = std::round(v / scale);
  // The clamp also absorbs non-finite quotients (overflowing v / tiny
  // scale): saturation at +-127 is the defined behaviour, never UB from
  // a float->int8 cast out of range.
  return static_cast<std::int8_t>(std::clamp(q, -127.0f, 127.0f));
}

}  // namespace

Matrix QuantizedTensor::dequantize() const {
  Matrix m(rows, cols);
  auto dst = m.flat();
  for (std::size_t i = 0; i < dst.size(); ++i) {
    dst[i] = static_cast<float>(values[i]) * scale;
  }
  return m;
}

QuantizedTensor quantize_tensor(const Matrix& m) {
  QuantizedTensor q;
  q.rows = m.rows();
  q.cols = m.cols();
  q.values.resize(m.size());
  float mx = 0.0f;
  for (float v : m.flat()) mx = std::max(mx, std::abs(v));
  q.scale = mx / 127.0f;
  auto src = m.flat();
  for (std::size_t i = 0; i < src.size(); ++i) {
    q.values[i] = quantize_value(src[i], q.scale);
  }
  return q;
}

std::size_t quantize_model_inplace(Sequential& model) {
  std::size_t bytes = 0;
  for (Param* p : model.params()) {
    QuantizedTensor q = quantize_tensor(p->value);
    bytes += q.bytes();
    p->value = q.dequantize();
  }
  return bytes;
}

float max_quantization_error(const Matrix& m) {
  const Matrix deq = quantize_tensor(m).dequantize();
  float err = 0.0f;
  auto a = m.flat();
  auto b = deq.flat();
  for (std::size_t i = 0; i < a.size(); ++i) {
    err = std::max(err, std::abs(a[i] - b[i]));
  }
  return err;
}

}  // namespace affectsys::nn
