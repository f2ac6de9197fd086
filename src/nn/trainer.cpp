#include "nn/trainer.hpp"

#include <algorithm>
#include <numeric>

#include "nn/optimizer.hpp"

namespace affectsys::nn {
namespace {

/// Global gradient-norm bound applied before every optimizer step.
constexpr float kGradClip = 5.0f;

}  // namespace

float train(Sequential& model, const Dataset& train, const TrainConfig& cfg) {
  if (train.empty()) return 0.0f;
  Adam opt(cfg.learning_rate);
  std::mt19937 rng(cfg.seed);
  std::vector<std::size_t> order(train.size());
  std::iota(order.begin(), order.end(), 0);

  float epoch_loss = 0.0f;
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    std::shuffle(order.begin(), order.end(), rng);
    double loss_sum = 0.0;
    std::size_t in_batch = 0;
    for (std::size_t idx : order) {
      const Sample& s = train[idx];
      const Matrix logits = model.forward(s.features);
      const LossResult lr = softmax_cross_entropy(logits, s.label);
      loss_sum += lr.loss;
      model.backward(lr.grad);
      if (++in_batch == cfg.batch_size) {
        auto params = model.params();
        // Average accumulated gradients over the batch.
        const float inv = 1.0f / static_cast<float>(in_batch);
        for (Param* p : params) p->grad *= inv;
        clip_gradients(params, kGradClip);
        opt.step(params);
        in_batch = 0;
      }
    }
    if (in_batch > 0) {
      auto params = model.params();
      const float inv = 1.0f / static_cast<float>(in_batch);
      for (Param* p : params) p->grad *= inv;
      clip_gradients(params, kGradClip);
      opt.step(params);
    }
    epoch_loss = static_cast<float>(loss_sum / static_cast<double>(train.size()));
    if (cfg.on_epoch) cfg.on_epoch(epoch, epoch_loss);
  }
  return epoch_loss;
}

EvalResult evaluate(Sequential& model, const Dataset& test,
                    std::size_t num_classes) {
  EvalResult res;
  res.confusion.assign(num_classes, std::vector<std::size_t>(num_classes, 0));
  if (test.empty()) return res;
  std::size_t correct = 0;
  for (const Sample& s : test) {
    const Matrix logits = model.forward(s.features);
    const std::size_t pred = argmax(logits.flat());
    if (pred == s.label) ++correct;
    if (s.label < num_classes && pred < num_classes) {
      ++res.confusion[s.label][pred];
    }
  }
  res.accuracy = static_cast<double>(correct) / static_cast<double>(test.size());
  return res;
}

void split_dataset(const Dataset& all, double test_fraction, unsigned seed,
                   Dataset& train_out, Dataset& test_out) {
  train_out.clear();
  test_out.clear();
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (const Sample& s : all) {
    if (coin(rng) < test_fraction) {
      test_out.push_back(s);
    } else {
      train_out.push_back(s);
    }
  }
  // Guarantee both sides are non-empty for small datasets.
  if (train_out.empty() && !test_out.empty()) {
    train_out.push_back(test_out.back());
    test_out.pop_back();
  }
  if (test_out.empty() && !train_out.empty()) {
    test_out.push_back(train_out.back());
    train_out.pop_back();
  }
}

}  // namespace affectsys::nn
