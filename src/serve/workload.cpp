#include "serve/workload.hpp"

#include <random>
#include <stdexcept>

#include "affect/speech_synth.hpp"

namespace affectsys::serve {

SharedWorkload::SharedWorkload(const WorkloadConfig& cfg) : cfg_(cfg) {
  if (cfg_.emotions.empty()) {
    throw std::invalid_argument("SharedWorkload: empty emotion set");
  }
  affect::SpeechSynthesizer synth(cfg_.synth_seed);
  bank_.reserve(cfg_.emotions.size());
  for (std::size_t i = 0; i < cfg_.emotions.size(); ++i) {
    // Distinct speaker ids keep the bank acoustically diverse; spread 0
    // would collapse every emotion onto one voice.
    bank_.push_back(synth
                        .synthesize(cfg_.emotions[i], static_cast<int>(i),
                                    cfg_.utterance_s, cfg_.sample_rate_hz, 0.1)
                        .samples);
  }

  const auto source = h264::generate_mixed_video(cfg_.video,
                                                 cfg_.quiet_fraction);
  h264::Encoder enc(cfg_.encoder);
  nals_ = h264::unpack_annexb(enc.encode_annexb(source));
  // encode_annexb emits the parameter sets once, ahead of every slice,
  // so they are the 1-layer clip's params.
  simulcast::LayerStream stream;
  for (const h264::NalUnit& nal : nals_) {
    if (!h264::is_slice(nal)) {
      stream.params.push_back(nal);
    } else {
      stream.slices.push_back(nal);
      stream.idr.push_back(nal.type == h264::NalType::kSliceIdr);
    }
  }
  std::vector<simulcast::LayerStream> layers;
  layers.push_back(std::move(stream));
  clip_ = std::make_unique<simulcast::SimulcastClip>(std::move(layers));

  if (!cfg_.simulcast.layers.empty()) {
    sim_clip_ = std::make_unique<simulcast::SimulcastClip>(
        simulcast::encode_simulcast(cfg_.simulcast));
  }
}

std::span<const double> SharedWorkload::utterance(affect::Emotion e) const {
  for (std::size_t i = 0; i < cfg_.emotions.size(); ++i) {
    if (cfg_.emotions[i] == e) return bank_[i];
  }
  throw std::out_of_range("SharedWorkload: emotion not in bank");
}

std::vector<ScriptSegment> SharedWorkload::make_script(
    unsigned seed, std::size_t segments) const {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::size_t> pick(0, cfg_.emotions.size() - 1);
  std::uniform_real_distribution<double> speech(2.0, 4.0);
  std::uniform_real_distribution<double> silence(0.25, 1.0);
  std::vector<ScriptSegment> script;
  script.reserve(segments);
  for (std::size_t i = 0; i < segments; ++i) {
    ScriptSegment seg;
    seg.emotion = cfg_.emotions[pick(rng)];
    seg.speech_s = speech(rng);
    seg.silence_s = silence(rng);
    script.push_back(seg);
  }
  return script;
}

}  // namespace affectsys::serve
