// Temporal pooling layers bridging sequence outputs to classifier heads.
#pragma once

#include "nn/layer.hpp"

namespace affectsys::nn {

/// Max-pool over non-overlapping windows of `pool` timesteps.
/// (T, C) -> (ceil(T/pool), C).
class MaxPool1D : public Layer {
 public:
  explicit MaxPool1D(std::size_t pool);

  Matrix forward(const Matrix& x) override;
  Matrix backward(const Matrix& grad_out) override;
  std::string kind() const override { return "maxpool1d"; }

  std::size_t pool() const { return pool_; }

 private:
  std::size_t pool_;
  Matrix input_;
  std::vector<std::size_t> argmax_;  ///< winning input row per (out_t, c)
};

/// Keeps only the final timestep: (T, C) -> (1, C).  Standard head for the
/// LSTM classifier.
class LastTimestep : public Layer {
 public:
  Matrix forward(const Matrix& x) override;
  Matrix backward(const Matrix& grad_out) override;
  std::string kind() const override { return "last_timestep"; }

 private:
  std::size_t in_rows_ = 0;
};

/// Flattens (T, C) to (1, T*C).  Requires a fixed T at model-build time;
/// used by the MLP classifier head.
class Flatten : public Layer {
 public:
  Matrix forward(const Matrix& x) override;
  Matrix backward(const Matrix& grad_out) override;
  std::string kind() const override { return "flatten"; }

 private:
  std::size_t in_rows_ = 0;
  std::size_t in_cols_ = 0;
};

}  // namespace affectsys::nn
