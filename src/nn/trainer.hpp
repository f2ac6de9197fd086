// Mini-batch training loop for sequence classification.
#pragma once

#include <functional>
#include <random>
#include <vector>

#include "nn/loss.hpp"
#include "nn/model.hpp"

namespace affectsys::nn {

/// One labelled sequence sample.
struct Sample {
  Matrix features;  ///< (timesteps, features)
  std::size_t label = 0;
};

using Dataset = std::vector<Sample>;

struct TrainConfig {
  std::size_t epochs = 20;
  std::size_t batch_size = 16;
  float learning_rate = 1e-3f;
  unsigned seed = 1;
  /// Called after each epoch with (epoch, mean training loss).
  std::function<void(std::size_t, float)> on_epoch;
};

struct EvalResult {
  double accuracy = 0.0;
  /// confusion[truth][prediction] counts.
  std::vector<std::vector<std::size_t>> confusion;
};

/// Trains `model` on `train` with Adam, clipping each step's gradients
/// to a global norm of 5; returns final mean epoch loss.
float train(Sequential& model, const Dataset& train, const TrainConfig& cfg);

/// Accuracy + confusion matrix on a held-out set.
EvalResult evaluate(Sequential& model, const Dataset& test,
                    std::size_t num_classes);

/// Deterministic stratified split: roughly `test_fraction` of each class
/// goes to the test set.
void split_dataset(const Dataset& all, double test_fraction, unsigned seed,
                   Dataset& train_out, Dataset& test_out);

}  // namespace affectsys::nn
