// Tests for the NN substrate: numerical gradient checks for every layer,
// optimizer behaviour, training convergence, quantization error bounds and
// model serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <sstream>
#include <vector>

#include "nn/activation.hpp"
#include "nn/conv1d.hpp"
#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "nn/lstm.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "nn/pooling.hpp"
#include "nn/quantize.hpp"
#include "nn/trainer.hpp"

namespace nn = affectsys::nn;

namespace {

nn::Matrix random_matrix(std::size_t r, std::size_t c, unsigned seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<float> d(0.0f, 1.0f);
  nn::Matrix m(r, c);
  for (auto& v : m.flat()) v = d(rng);
  return m;
}

/// Scalar loss = sum of elementwise products with a fixed random weight
/// matrix; lets us check dL/dx for arbitrary-output layers.
struct ProbeLoss {
  nn::Matrix weights;

  float value(const nn::Matrix& y) const {
    float acc = 0.0f;
    auto w = weights.flat();
    auto v = y.flat();
    for (std::size_t i = 0; i < v.size(); ++i) acc += w[i] * v[i];
    return acc;
  }
  nn::Matrix grad() const { return weights; }
};

/// Central-difference gradient check on a layer's input gradient and on
/// every parameter gradient.
void check_layer_gradients(nn::Layer& layer, nn::Matrix input,
                           float tol = 2e-2f) {
  nn::Matrix out = layer.forward(input);
  ProbeLoss loss{random_matrix(out.rows(), out.cols(), 999)};

  for (nn::Param* p : layer.params()) p->zero_grad();
  layer.forward(input);
  const nn::Matrix grad_in = layer.backward(loss.grad());

  const float eps = 1e-2f;
  // Input gradient (sample a few entries).
  for (std::size_t idx = 0; idx < std::min<std::size_t>(input.size(), 12);
       ++idx) {
    auto flat = input.flat();
    const float orig = flat[idx];
    flat[idx] = orig + eps;
    const float up = loss.value(layer.forward(input));
    flat[idx] = orig - eps;
    const float down = loss.value(layer.forward(input));
    flat[idx] = orig;
    const float numeric = (up - down) / (2.0f * eps);
    EXPECT_NEAR(grad_in.flat()[idx], numeric,
                tol * std::max(1.0f, std::abs(numeric)))
        << "input grad " << idx;
  }
  // Parameter gradients: recompute analytic grads on the original input.
  for (nn::Param* p : layer.params()) p->zero_grad();
  layer.forward(input);
  layer.backward(loss.grad());
  for (nn::Param* p : layer.params()) {
    for (std::size_t idx = 0;
         idx < std::min<std::size_t>(p->value.size(), 10); ++idx) {
      const float analytic = p->grad.flat()[idx];
      const float orig = p->value.flat()[idx];
      p->value.flat()[idx] = orig + eps;
      const float up = loss.value(layer.forward(input));
      p->value.flat()[idx] = orig - eps;
      const float down = loss.value(layer.forward(input));
      p->value.flat()[idx] = orig;
      const float numeric = (up - down) / (2.0f * eps);
      EXPECT_NEAR(analytic, numeric, tol * std::max(1.0f, std::abs(numeric)))
          << p->name << " grad " << idx;
    }
  }
}

}  // namespace

// ------------------------------------------------------------------ matrix

TEST(Matrix, MatmulKnownValues) {
  nn::Matrix a(2, 3);
  nn::Matrix b(3, 2);
  float v = 1.0f;
  for (auto& x : a.flat()) x = v++;
  v = 1.0f;
  for (auto& x : b.flat()) x = v++;
  const nn::Matrix c = a.matmul(b);
  // [[1,2,3],[4,5,6]] * [[1,2],[3,4],[5,6]] = [[22,28],[49,64]]
  EXPECT_EQ(c(0, 0), 22.0f);
  EXPECT_EQ(c(0, 1), 28.0f);
  EXPECT_EQ(c(1, 0), 49.0f);
  EXPECT_EQ(c(1, 1), 64.0f);
}

TEST(Matrix, TransposedVariantsAgree) {
  const nn::Matrix a = random_matrix(4, 5, 1);
  const nn::Matrix b = random_matrix(4, 3, 2);
  const nn::Matrix c = random_matrix(6, 5, 3);
  // a^T * b accumulated into zeros == a.transposed().matmul(b).
  nn::Matrix r1(5, 3);
  r1.add_transposed_matmul(a, b);
  const nn::Matrix r2 = a.transposed().matmul(b);
  ASSERT_TRUE(r1.same_shape(r2));
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_NEAR(r1.flat()[i], r2.flat()[i], 1e-5f);
  }
  // a * c^T via matmul_transposed == a.matmul(c.transposed()).
  const nn::Matrix r3 = a.matmul_transposed(c);
  const nn::Matrix r4 = a.matmul(c.transposed());
  ASSERT_TRUE(r3.same_shape(r4));
  for (std::size_t i = 0; i < r3.size(); ++i) {
    EXPECT_NEAR(r3.flat()[i], r4.flat()[i], 1e-5f);
  }
}

TEST(Matrix, ShapeMismatchThrows) {
  nn::Matrix a(2, 3), b(2, 3);
  EXPECT_THROW(a.matmul(b), std::invalid_argument);
  nn::Matrix c(4, 4);
  EXPECT_THROW(a += c, std::invalid_argument);
  EXPECT_THROW(a.at(5, 0), std::out_of_range);
}

// ----------------------------------------------------------------- softmax

TEST(Softmax, SumsToOneAndOrdersByLogit) {
  std::vector<float> logits = {1.0f, 3.0f, 2.0f};
  nn::softmax_inplace(logits);
  EXPECT_NEAR(logits[0] + logits[1] + logits[2], 1.0f, 1e-6f);
  EXPECT_GT(logits[1], logits[2]);
  EXPECT_GT(logits[2], logits[0]);
}

TEST(Softmax, StableForHugeLogits) {
  std::vector<float> logits = {1000.0f, 1001.0f};
  nn::softmax_inplace(logits);
  EXPECT_FALSE(std::isnan(logits[0]));
  EXPECT_NEAR(logits[0] + logits[1], 1.0f, 1e-6f);
}

TEST(Loss, CrossEntropyGradientIsPMinusOneHot) {
  nn::Matrix logits(1, 4);
  logits(0, 0) = 0.5f;
  logits(0, 1) = -1.0f;
  logits(0, 2) = 2.0f;
  logits(0, 3) = 0.0f;
  const auto probs = nn::softmax_probs(logits);
  const auto res = nn::softmax_cross_entropy(logits, 2);
  for (std::size_t i = 0; i < 4; ++i) {
    const float expected = probs[i] - (i == 2 ? 1.0f : 0.0f);
    EXPECT_NEAR(res.grad(0, i), expected, 1e-6f);
  }
  EXPECT_NEAR(res.loss, -std::log(probs[2]), 1e-6f);
}

TEST(Loss, RejectsBadTarget) {
  nn::Matrix logits(1, 3);
  EXPECT_THROW(nn::softmax_cross_entropy(logits, 3), std::invalid_argument);
}

// ---------------------------------------------------------- gradient checks

TEST(GradCheck, Dense) {
  std::mt19937 rng(10);
  nn::Dense layer(6, 4, rng);
  check_layer_gradients(layer, random_matrix(3, 6, 11));
}

TEST(GradCheck, Conv1D) {
  std::mt19937 rng(14);
  nn::Conv1D layer(3, 4, 3, rng);
  check_layer_gradients(layer, random_matrix(8, 3, 15));
}

TEST(GradCheck, Lstm) {
  std::mt19937 rng(16);
  nn::Lstm layer(3, 4, rng);
  check_layer_gradients(layer, random_matrix(6, 3, 17), 4e-2f);
}

TEST(GradCheck, LastTimestep) {
  nn::LastTimestep layer;
  check_layer_gradients(layer, random_matrix(5, 4, 19));
}

TEST(GradCheck, Flatten) {
  nn::Flatten layer;
  check_layer_gradients(layer, random_matrix(3, 4, 20));
}

TEST(GradCheck, StackedNetworkEndToEnd) {
  // Full-pipeline gradient check through Dense->ReLU->Dense with the
  // cross-entropy loss, validating Sequential::backward composition.
  std::mt19937 rng(21);
  nn::Sequential model;
  model.add(std::make_unique<nn::Flatten>())
      .add(std::make_unique<nn::Dense>(12, 8, rng))
      .add(std::make_unique<nn::Relu>())
      .add(std::make_unique<nn::Dense>(8, 3, rng));
  nn::Matrix input = random_matrix(3, 4, 22);

  auto loss_of = [&] {
    return nn::softmax_cross_entropy(model.forward(input), 1).loss;
  };
  for (nn::Param* p : model.params()) p->zero_grad();
  const auto lr = nn::softmax_cross_entropy(model.forward(input), 1);
  model.backward(lr.grad);

  const float eps = 1e-2f;
  for (nn::Param* p : model.params()) {
    for (std::size_t idx = 0; idx < std::min<std::size_t>(p->value.size(), 6);
         ++idx) {
      const float analytic = p->grad.flat()[idx];
      const float orig = p->value.flat()[idx];
      p->value.flat()[idx] = orig + eps;
      const float up = loss_of();
      p->value.flat()[idx] = orig - eps;
      const float down = loss_of();
      p->value.flat()[idx] = orig;
      const float numeric = (up - down) / (2.0f * eps);
      EXPECT_NEAR(analytic, numeric, 2e-2f * std::max(1.0f, std::abs(numeric)))
          << p->name << "[" << idx << "]";
    }
  }
}

// --------------------------------------------------------------- optimizers

TEST(Optimizer, AdamConvergesOnQuadratic) {
  nn::Param w("w", 1, 4);
  const float target[4] = {1.0f, -2.0f, 0.5f, 3.0f};
  nn::Adam opt(0.05f);
  for (int it = 0; it < 500; ++it) {
    for (std::size_t i = 0; i < 4; ++i) {
      w.grad(0, i) = 2.0f * (w.value(0, i) - target[i]);
    }
    opt.step({&w});
  }
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(w.value(0, i), target[i], 1e-2f);
  }
}

TEST(Optimizer, StepZeroesGradients) {
  nn::Param w("w", 2, 2);
  w.grad.fill(1.0f);
  nn::Adam opt(0.1f);
  opt.step({&w});
  for (float g : w.grad.flat()) EXPECT_EQ(g, 0.0f);
}

TEST(Optimizer, ClipGradientsScalesToNorm) {
  nn::Param w("w", 1, 3);
  w.grad(0, 0) = 3.0f;
  w.grad(0, 1) = 4.0f;  // norm 5
  const float pre = nn::clip_gradients({&w}, 1.0f);
  EXPECT_NEAR(pre, 5.0f, 1e-5f);
  EXPECT_NEAR(w.grad(0, 0), 0.6f, 1e-5f);
  EXPECT_NEAR(w.grad(0, 1), 0.8f, 1e-5f);
}

// ----------------------------------------------------------------- training

TEST(Training, LearnsSeparableSequenceTask) {
  // Class 0: rising ramp; class 1: falling ramp; class 2: flat + noise.
  std::mt19937 rng(30);
  std::normal_distribution<float> noise(0.0f, 0.1f);
  nn::Dataset data;
  for (int n = 0; n < 90; ++n) {
    nn::Sample s;
    s.label = static_cast<std::size_t>(n % 3);
    s.features = nn::Matrix(10, 2);
    for (std::size_t t = 0; t < 10; ++t) {
      const float x = static_cast<float>(t) / 10.0f;
      const float base = s.label == 0 ? x : (s.label == 1 ? 1.0f - x : 0.5f);
      s.features(t, 0) = base + noise(rng);
      s.features(t, 1) = -base + noise(rng);
    }
    data.push_back(std::move(s));
  }
  nn::Dataset train_set, test_set;
  nn::split_dataset(data, 0.3, 1, train_set, test_set);

  std::mt19937 mrng(31);
  nn::Sequential model;
  model.add(std::make_unique<nn::Lstm>(2, 8, mrng))
      .add(std::make_unique<nn::LastTimestep>())
      .add(std::make_unique<nn::Dense>(8, 3, mrng));
  nn::TrainConfig cfg;
  cfg.epochs = 40;
  cfg.batch_size = 8;
  cfg.learning_rate = 1e-2f;
  nn::train(model, train_set, cfg);
  const auto ev = nn::evaluate(model, test_set, 3);
  EXPECT_GT(ev.accuracy, 0.9) << "LSTM failed to learn a separable task";
}

TEST(Training, LossDecreasesOverEpochs) {
  std::mt19937 rng(32);
  nn::Dataset data;
  for (int n = 0; n < 40; ++n) {
    nn::Sample s;
    s.label = static_cast<std::size_t>(n % 2);
    s.features = random_matrix(4, 3, static_cast<unsigned>(100 + n));
    s.features(0, 0) = s.label ? 2.0f : -2.0f;
    data.push_back(std::move(s));
  }
  std::mt19937 mrng(33);
  nn::Sequential model;
  model.add(std::make_unique<nn::Flatten>())
      .add(std::make_unique<nn::Dense>(12, 8, mrng))
      .add(std::make_unique<nn::Relu>())
      .add(std::make_unique<nn::Dense>(8, 2, mrng));
  std::vector<float> losses;
  nn::TrainConfig cfg;
  cfg.epochs = 15;
  cfg.learning_rate = 5e-3f;
  cfg.on_epoch = [&](std::size_t, float l) { losses.push_back(l); };
  nn::train(model, data, cfg);
  ASSERT_EQ(losses.size(), 15u);
  EXPECT_LT(losses.back(), losses.front() * 0.5f);
}

TEST(Training, ConfusionMatrixRowsSumToClassCounts) {
  nn::Dataset data;
  for (int n = 0; n < 30; ++n) {
    nn::Sample s;
    s.label = static_cast<std::size_t>(n % 3);
    s.features = random_matrix(2, 2, static_cast<unsigned>(n));
    data.push_back(std::move(s));
  }
  std::mt19937 mrng(34);
  nn::Sequential model;
  model.add(std::make_unique<nn::Flatten>())
      .add(std::make_unique<nn::Dense>(4, 3, mrng));
  const auto ev = nn::evaluate(model, data, 3);
  for (std::size_t truth = 0; truth < 3; ++truth) {
    std::size_t row = 0;
    for (std::size_t pred = 0; pred < 3; ++pred) {
      row += ev.confusion[truth][pred];
    }
    EXPECT_EQ(row, 10u);
  }
}

TEST(Training, SplitIsDisjointAndComplete) {
  nn::Dataset data(50);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i].features = nn::Matrix(1, 1, static_cast<float>(i));
  }
  nn::Dataset a, b;
  nn::split_dataset(data, 0.3, 7, a, b);
  EXPECT_EQ(a.size() + b.size(), data.size());
  EXPECT_FALSE(a.empty());
  EXPECT_FALSE(b.empty());
}

// ------------------------------------------------------------- quantization

TEST(Quantize, ErrorBoundedByHalfScale) {
  const nn::Matrix m = random_matrix(16, 16, 40);
  float mx = 0.0f;
  for (float v : m.flat()) mx = std::max(mx, std::abs(v));
  const float scale = mx / 127.0f;
  EXPECT_LE(nn::max_quantization_error(m), scale * 0.5f + 1e-7f);
}

TEST(Quantize, ModelShrinksToRoughlyQuarterSize) {
  std::mt19937 rng(42);
  nn::ClassifierSpec spec{8, 16, 4};
  nn::Sequential model = nn::build_mlp(spec, rng);
  const std::size_t fp32 = model.weight_bytes(4);
  const std::size_t int8 = nn::quantize_model_inplace(model);
  EXPECT_LT(int8, fp32 / 3);
  EXPECT_GT(int8, fp32 / 5);
}

TEST(Quantize, ZeroTensorSurvives) {
  nn::Matrix z(4, 4, 0.0f);
  const auto q = nn::quantize_tensor(z);
  const auto back = q.dequantize();
  for (float v : back.flat()) EXPECT_EQ(v, 0.0f);
}

// ------------------------------------------------------------ serialization

TEST(Serialize, RoundTripsAllArchitectures) {
  nn::ClassifierSpec spec{6, 16, 5};
  for (auto kind :
       {nn::ModelKind::kMlp, nn::ModelKind::kCnn, nn::ModelKind::kLstm}) {
    std::mt19937 rng(50);
    nn::Sequential model = nn::build_model(kind, spec, rng);
    const nn::Matrix input = random_matrix(16, 6, 51);
    const nn::Matrix before = model.forward(input);

    std::stringstream ss;
    model.save(ss);
    nn::Sequential loaded = nn::Sequential::load(ss);
    const nn::Matrix after = loaded.forward(input);

    ASSERT_TRUE(before.same_shape(after));
    for (std::size_t i = 0; i < before.size(); ++i) {
      EXPECT_EQ(before.flat()[i], after.flat()[i])
          << nn::model_kind_name(kind) << " output " << i;
    }
    EXPECT_EQ(model.param_count(), loaded.param_count());
  }
}

TEST(Serialize, RejectsGarbage) {
  std::stringstream ss;
  ss << "not a model";
  EXPECT_THROW(nn::Sequential::load(ss), std::runtime_error);
}

TEST(Serialize, RejectsUnknownLayerKind) {
  // A well-formed header naming a layer kind no builder makes (here the
  // old "tanh" activation) fails loudly instead of loading a guess.
  std::stringstream ss;
  const auto put_u32 = [&](std::uint32_t v) {
    ss.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put_u32(0x4146464Du);  // "AFFM"
  put_u32(1);
  put_u32(4);
  ss << "tanh";
  EXPECT_THROW(nn::Sequential::load(ss), std::runtime_error);
}

// --------------------------------------------------------- paper geometries

TEST(PaperModels, ParameterCountsMatchFig3c) {
  // 17 features x 64 timesteps is the default affect feature geometry.
  nn::ClassifierSpec spec{17, 64, 7};
  std::mt19937 rng(60);
  auto mlp = nn::build_mlp(spec, rng);
  auto cnn = nn::build_cnn(spec, rng);
  auto lstm = nn::build_lstm(spec, rng);
  // Paper: MLP ~508k, CNN ~649k, LSTM ~429k trainable parameters.
  EXPECT_NEAR(static_cast<double>(mlp.param_count()), 508000.0, 30000.0);
  EXPECT_NEAR(static_cast<double>(cnn.param_count()), 649000.0, 40000.0);
  EXPECT_NEAR(static_cast<double>(lstm.param_count()), 429000.0, 25000.0);
  // Size ordering of Fig 3(c): CNN > MLP > LSTM.
  EXPECT_GT(cnn.param_count(), mlp.param_count());
  EXPECT_GT(mlp.param_count(), lstm.param_count());
}
