// Trains an affect classifier on a synthesized corpus, quantizes it to
// 8 bits, and saves both models to disk — the offline half of deploying
// the system to a wearable.
//
// Usage: train_affect_classifier [mlp|cnn|lstm] [epochs] [out.bin]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "affect/classifier.hpp"
#include "nn/quantize.hpp"

using namespace affectsys;

int main(int argc, char** argv) {
  nn::ModelKind kind = nn::ModelKind::kLstm;
  if (argc > 1) {
    if (!std::strcmp(argv[1], "mlp")) kind = nn::ModelKind::kMlp;
    else if (!std::strcmp(argv[1], "cnn")) kind = nn::ModelKind::kCnn;
    else if (!std::strcmp(argv[1], "lstm")) kind = nn::ModelKind::kLstm;
    else {
      std::fprintf(stderr, "unknown model kind '%s'\n", argv[1]);
      return 1;
    }
  }
  const std::size_t epochs = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 8;
  const char* out_path = argc > 3 ? argv[3] : "affect_model.bin";

  // A small EMOVO-geometry corpus keeps this example to ~a minute.
  affect::CorpusProfile prof = affect::emovo_profile();
  prof.utterances_per_speaker_emotion = 4;

  const affect::FeatureConfig fc = affect::default_feature_config();
  const affect::FeatureExtractor fx(fc);
  std::printf("synthesizing %s corpus (%d speakers x %zu emotions)...\n",
              prof.name.c_str(), prof.num_speakers, prof.emotions.size());
  const auto corpus = affect::build_corpus(prof, fx, 7);

  nn::Dataset train_set, test_set;
  nn::split_dataset(corpus.samples, 0.25, 1, train_set, test_set);

  nn::ClassifierSpec spec{fx.feature_dim(), fx.timesteps(),
                          corpus.num_classes()};
  std::mt19937 rng(1);
  nn::Sequential model = nn::build_model(kind, spec, rng);
  std::printf("training %s (%zu parameters) for %zu epochs...\n",
              nn::model_kind_name(kind), model.param_count(), epochs);

  nn::TrainConfig tc;
  tc.epochs = epochs;
  tc.batch_size = 8;
  tc.learning_rate = 1.5e-3f;
  tc.on_epoch = [](std::size_t epoch, float loss) {
    std::printf("  epoch %2zu  loss %.4f\n", epoch, loss);
  };
  nn::train(model, train_set, tc);

  const auto ev = nn::evaluate(model, test_set, corpus.num_classes());
  std::printf("test accuracy: %.1f%% (%zu-way)\n", 100.0 * ev.accuracy,
              corpus.num_classes());

  {
    std::ofstream os(out_path, std::ios::binary);
    model.save(os);
  }
  std::printf("saved float32 model to %s (%zu KB)\n", out_path,
              model.weight_bytes(4) / 1024);

  const std::size_t q_bytes = nn::quantize_model_inplace(model);
  const auto ev8 = nn::evaluate(model, test_set, corpus.num_classes());
  const std::string q_path = std::string(out_path) + ".int8";
  {
    std::ofstream os(q_path, std::ios::binary);
    model.save(os);
  }
  std::printf("8-bit accuracy: %.1f%% — storage would be %zu KB (saved %s)\n",
              100.0 * ev8.accuracy, q_bytes / 1024, q_path.c_str());
  return 0;
}
