// End-to-end affect classifier: waveform -> features -> model -> emotion.
//
// This is the software stand-in for the smartphone "neural engine" path in
// Fig 2/Fig 4: biosignals arrive from the wearable, features are extracted
// and a small on-device model emits an emotion label with confidence.
#pragma once

#include <span>
#include <vector>

#include "affect/dataset.hpp"
#include "affect/emotion.hpp"
#include "affect/features.hpp"
#include "nn/model.hpp"

namespace affectsys::affect {

struct ClassificationResult {
  Emotion emotion = Emotion::kNeutral;
  float confidence = 0.0f;           ///< softmax probability of the winner
  std::vector<float> probabilities;  ///< per-class, in label_set order
};

class AffectClassifier {
 public:
  /// Takes ownership of a trained model whose output order matches
  /// `label_set`.
  AffectClassifier(nn::Sequential model, std::vector<Emotion> label_set,
                   FeatureConfig feature_cfg);

  /// Classifies a raw audio/biosignal window.
  ClassificationResult classify(std::span<const double> samples);

  /// Classifies an already-extracted feature sequence.
  ClassificationResult classify_features(const nn::Matrix& features);

  const std::vector<Emotion>& label_set() const { return label_set_; }
  nn::Sequential& model() { return model_; }
  /// Feature geometry this classifier was trained with.
  const FeatureConfig& feature_config() const { return fx_.config(); }
  /// The extractor for that geometry.  Immutable and reentrant (its row
  /// and finish steps are const and keep their scratch thread-local), so
  /// every session of a server shares this one copy of the DSP tables.
  const FeatureExtractor& features() const { return fx_; }

 private:
  nn::Sequential model_;
  std::vector<Emotion> label_set_;
  FeatureExtractor fx_;
  /// classify()'s output matrix, reused so the steady-state path performs
  /// no per-window heap allocation.  Makes classify() non-reentrant,
  /// which it already was (model forward state).
  FeatureWorkspace fx_ws_;
};

/// Convenience: trains a classifier of the given kind on a synthesized
/// corpus (used by examples and integration tests).
AffectClassifier train_affect_classifier(nn::ModelKind kind,
                                         const CorpusProfile& corpus,
                                         const nn::TrainConfig& train_cfg,
                                         unsigned corpus_seed = 7);

}  // namespace affectsys::affect
