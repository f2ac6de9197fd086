// Fig 3 reproduction: classifier comparison for on-device affect
// detection.
//
//   (a) confusion matrix of the LSTM on the RAVDESS-like corpus
//   (b) accuracy of NN(MLP) / CNN / LSTM on CREMA-D / EMOVO / RAVDESS
//   (c) weight size, float32 vs 8-bit, per model (EMOVO geometry)
//   (d) accuracy at float vs 8-bit precision (EMOVO)
//
// Corpora are synthesized (see DESIGN.md).  To keep a full run to a few
// minutes the per-speaker utterance counts are reduced below the real
// corpus sizes; set AFFECT_FIG3_FULL=1 for the larger variant.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "affect/classifier.hpp"
#include "nn/quantize.hpp"

using namespace affectsys;

namespace {

struct CorpusResult {
  std::string corpus;
  std::map<nn::ModelKind, double> accuracy_fp32;
  std::map<nn::ModelKind, double> accuracy_int8;
  nn::EvalResult lstm_eval;  // for the confusion matrix
  std::vector<affect::Emotion> labels;
};

constexpr nn::ModelKind kKinds[] = {nn::ModelKind::kMlp, nn::ModelKind::kCnn,
                                    nn::ModelKind::kLstm};

CorpusResult run_corpus(const affect::CorpusProfile& prof,
                        const affect::FeatureExtractor& fx,
                        const nn::TrainConfig& tc) {
  CorpusResult res;
  res.corpus = prof.name;
  const affect::LabelledCorpus corpus = affect::build_corpus(prof, fx, 7);
  res.labels = corpus.label_set;
  nn::Dataset train_set, test_set;
  nn::split_dataset(corpus.samples, 0.25, tc.seed, train_set, test_set);
  std::fprintf(stderr, "[fig3] %s: %zu train / %zu test\n", prof.name.c_str(),
               train_set.size(), test_set.size());

  for (nn::ModelKind kind : kKinds) {
    nn::ClassifierSpec spec{fx.feature_dim(), fx.timesteps(),
                            corpus.num_classes()};
    std::mt19937 rng(tc.seed);
    nn::Sequential model = nn::build_model(kind, spec, rng);
    nn::train(model, train_set, tc);
    const auto ev = nn::evaluate(model, test_set, corpus.num_classes());
    res.accuracy_fp32[kind] = ev.accuracy;
    if (kind == nn::ModelKind::kLstm) res.lstm_eval = ev;
    nn::quantize_model_inplace(model);
    res.accuracy_int8[kind] =
        nn::evaluate(model, test_set, corpus.num_classes()).accuracy;
    std::fprintf(stderr, "[fig3]   %-4s acc=%.3f acc8=%.3f\n",
                 nn::model_kind_name(kind), res.accuracy_fp32[kind],
                 res.accuracy_int8[kind]);
  }
  return res;
}

}  // namespace

int main() {
  const bool full = std::getenv("AFFECT_FIG3_FULL") != nullptr;

  const affect::FeatureConfig fc = affect::default_feature_config();
  const affect::FeatureExtractor fx(fc);

  // Reduced corpus volumes (paper corpora hold thousands of clips; the
  // synthesized stand-ins keep the speaker/emotion geometry).
  affect::CorpusProfile ravdess = affect::ravdess_profile();
  ravdess.utterances_per_speaker_emotion = full ? 4 : 1;
  affect::CorpusProfile emovo = affect::emovo_profile();
  emovo.utterances_per_speaker_emotion = full ? 14 : 4;
  affect::CorpusProfile cremad = affect::cremad_profile();
  cremad.num_speakers = full ? 91 : 30;

  nn::TrainConfig tc;
  tc.epochs = full ? 16 : 10;
  tc.batch_size = 8;
  tc.learning_rate = 1.5e-3f;
  tc.seed = 1;

  std::vector<CorpusResult> results;
  results.push_back(run_corpus(cremad, fx, tc));
  results.push_back(run_corpus(emovo, fx, tc));
  results.push_back(run_corpus(ravdess, fx, tc));

  // ---------------------------------------------------------------- Fig 3a
  std::printf("\n=== Fig 3(a): LSTM confusion matrix, RAVDESS ===\n");
  const CorpusResult& rav = results[2];
  std::printf("%-10s", "truth\\pred");
  for (affect::Emotion e : rav.labels) {
    std::printf("%10.9s", affect::emotion_name(e).data());
  }
  std::printf("\n");
  for (std::size_t t = 0; t < rav.labels.size(); ++t) {
    std::printf("%-10.9s", affect::emotion_name(rav.labels[t]).data());
    for (std::size_t p = 0; p < rav.labels.size(); ++p) {
      std::printf("%10zu", rav.lstm_eval.confusion[t][p]);
    }
    std::printf("\n");
  }

  // ---------------------------------------------------------------- Fig 3b
  std::printf("\n=== Fig 3(b): accuracy (%%) by model and corpus ===\n");
  std::printf("%-10s %10s %10s %10s\n", "corpus", "NN", "CNN", "LSTM");
  for (const CorpusResult& r : results) {
    std::printf("%-10s", r.corpus.c_str());
    for (nn::ModelKind k : kKinds) {
      std::printf(" %9.1f%%", 100.0 * r.accuracy_fp32.at(k));
    }
    std::printf("\n");
  }
  double avg_nn = 0, avg_temporal = 0;
  for (const CorpusResult& r : results) {
    avg_nn += r.accuracy_fp32.at(nn::ModelKind::kMlp);
    avg_temporal += 0.5 * (r.accuracy_fp32.at(nn::ModelKind::kCnn) +
                           r.accuracy_fp32.at(nn::ModelKind::kLstm));
  }
  std::printf("paper claim: CNN and LSTM outperform the MLP  ->  %s\n",
              avg_temporal > avg_nn ? "HOLDS" : "DOES NOT HOLD");

  // ---------------------------------------------------------------- Fig 3c
  std::printf("\n=== Fig 3(c): weight size (KB), EMOVO geometry ===\n");
  std::printf("%-6s %12s %12s %12s\n", "model", "params", "FLOAT", "8bit");
  nn::ClassifierSpec spec{fx.feature_dim(), fx.timesteps(),
                          emovo.emotions.size()};
  for (nn::ModelKind k : kKinds) {
    std::mt19937 rng(1);
    nn::Sequential model = nn::build_model(k, spec, rng);
    const std::size_t fp32 = model.weight_bytes(4);
    const std::size_t int8 = nn::quantize_model_inplace(model);
    std::printf("%-6s %12zu %10zuKB %10zuKB\n", nn::model_kind_name(k),
                model.param_count(), fp32 / 1024, int8 / 1024);
  }
  std::printf("paper: NN ~508k / CNN ~649k / LSTM ~429k parameters\n");

  // ---------------------------------------------------------------- Fig 3d
  std::printf("\n=== Fig 3(d): accuracy at FLOAT vs 8-bit, EMOVO ===\n");
  std::printf("%-6s %10s %10s %10s\n", "model", "FLOAT", "8bit", "loss");
  const CorpusResult& emv = results[1];
  bool within_3pts = true;
  for (nn::ModelKind k : kKinds) {
    const double fp = 100.0 * emv.accuracy_fp32.at(k);
    const double q8 = 100.0 * emv.accuracy_int8.at(k);
    within_3pts &= fp - q8 < 3.0;
    std::printf("%-6s %9.1f%% %9.1f%% %+9.1f%%\n", nn::model_kind_name(k), fp,
                q8, q8 - fp);
  }
  std::printf("paper claim: <3%% accuracy loss at 8-bit  ->  %s\n",
              within_3pts ? "HOLDS" : "DOES NOT HOLD");
  return 0;
}
