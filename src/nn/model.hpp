// Sequential model container, the three paper classifier architectures,
// and binary (de)serialization.
#pragma once

#include <iosfwd>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "nn/layer.hpp"

namespace affectsys::nn {

/// Reusable activation scratch for the zero-allocation inference path:
/// two matrices the layer outputs ping-pong between, recycled across
/// calls.
struct ForwardWorkspace {
  Matrix a;
  Matrix b;
};

/// A stack of layers executed in order.  Owns its layers.
class Sequential {
 public:
  Sequential() = default;
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  /// Appends a layer and returns a reference for chaining.
  Sequential& add(std::unique_ptr<Layer> layer);

  Matrix forward(const Matrix& x);
  /// Forward through layers [first, layer_count()) only.  The batched
  /// inference path uses this to run a stacked (batch x flat) matrix
  /// through the dense stage of a Flatten-headed model: each batch row
  /// is exactly one sample's Flatten output, and the GEMM kernel's
  /// per-element accumulation order is row-count-invariant, so batched
  /// rows match per-sample forward() bit for bit.
  Matrix forward_from(std::size_t first, const Matrix& x);
  /// Inference-only forward_from: activations ping-pong through `ws`
  /// and the returned reference (into ws, or `x` itself when no layer
  /// runs) stays valid until the next call on the same workspace.
  /// Bit-identical to forward_from() by each layer's forward_infer
  /// contract, but allocation-free once the workspace is warm (for
  /// row-wise layer stacks; layers without an override fall back to
  /// their allocating forward()).  Skips the backward caches, so
  /// backward() must not follow this.
  const Matrix& forward_from_infer(std::size_t first, const Matrix& x,
                                   ForwardWorkspace& ws);
  /// Backward through all layers; returns dL/d(input).
  Matrix backward(const Matrix& grad_out);

  std::vector<Param*> params();
  std::size_t param_count();
  /// Weight storage in bytes at the given bytes-per-parameter width
  /// (4 = float32, 1 = int8).  Quantized storage additionally carries one
  /// float scale per parameter tensor.
  std::size_t weight_bytes(std::size_t bytes_per_param) const;

  std::size_t layer_count() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }

  /// Serializes architecture + weights to a binary stream.
  void save(std::ostream& os) const;
  /// Reconstructs a model saved with save().
  static Sequential load(std::istream& is);

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

/// Hyperparameters shared by the three paper classifiers.
struct ClassifierSpec {
  std::size_t input_features = 0;  ///< features per timestep
  std::size_t timesteps = 0;       ///< fixed sequence length
  std::size_t num_classes = 0;
};

/// 3-layer MLP ("NN" in Fig 3): flatten -> 3 dense+ReLU stages sized to
/// roughly the paper's 260 neurons / ~508k parameters at the default
/// feature geometry -> logits.
Sequential build_mlp(const ClassifierSpec& spec, std::mt19937& rng);

/// CNN: three Conv1D stages of 32/64/128 channels with ReLU (MaxPool
/// after the first two), flattened into a dense head (~660k parameters
/// at paper geometry; the paper reports ~649k).
Sequential build_cnn(const ClassifierSpec& spec, std::mt19937& rng);

/// LSTM: two stacked layers totalling 320 units (~429k parameters),
/// last-timestep head.
Sequential build_lstm(const ClassifierSpec& spec, std::mt19937& rng);

enum class ModelKind { kMlp, kCnn, kLstm };

const char* model_kind_name(ModelKind k);

Sequential build_model(ModelKind kind, const ClassifierSpec& spec,
                       std::mt19937& rng);

}  // namespace affectsys::nn
