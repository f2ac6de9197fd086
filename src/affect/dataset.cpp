#include "affect/dataset.hpp"

#include <algorithm>
#include <stdexcept>

namespace affectsys::affect {

LabelledCorpus build_corpus(const CorpusProfile& profile,
                            const FeatureExtractor& fx, unsigned seed) {
  LabelledCorpus corpus;
  corpus.name = profile.name;
  corpus.label_set = profile.emotions;

  SpeechSynthesizer synth(seed);
  const std::vector<Utterance> utts = synth.synthesize_corpus(profile);
  corpus.samples.reserve(utts.size());
  for (const Utterance& u : utts) {
    const auto it = std::find(profile.emotions.begin(),
                              profile.emotions.end(), u.emotion);
    if (it == profile.emotions.end()) {
      throw std::logic_error("build_corpus: utterance emotion not in label set");
    }
    nn::Sample s;
    s.features = fx.extract(u.samples);
    s.label = static_cast<std::size_t>(it - profile.emotions.begin());
    corpus.samples.push_back(std::move(s));
  }
  return corpus;
}

FeatureConfig default_feature_config() {
  FeatureConfig fc;
  fc.mfcc.sample_rate = 16000.0;
  fc.mfcc.frame_len = 400;
  fc.mfcc.hop = 160;
  fc.mfcc.fft_size = 512;
  fc.mfcc.num_filters = 26;
  fc.mfcc.num_coeffs = 13;
  fc.timesteps = 64;
  return fc;
}

}  // namespace affectsys::affect
