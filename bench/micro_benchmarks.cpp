// Google-benchmark microbenchmarks: throughput of the hot paths every
// experiment rides on (decode, feature extraction, classifier inference,
// selector filtering, process-manager operations).
#include <benchmark/benchmark.h>

#include <random>
#include <string>

#include "adaptive/input_selector.hpp"
#include "affect/dataset.hpp"
#include "affect/speech_synth.hpp"
#include "android/catalog.hpp"
#include "android/process.hpp"
#include "core/affect_table.hpp"
#include "h264/decoder.hpp"
#include "h264/encoder.hpp"
#include "h264/testvideo.hpp"
#include "nn/model.hpp"
#include "nn/quantize.hpp"
#include "obs/metrics.hpp"
#include "signal/mel.hpp"

using namespace affectsys;

namespace {

const std::vector<std::uint8_t>& encoded_stream() {
  static const std::vector<std::uint8_t> stream = [] {
    h264::VideoConfig vc{64, 64, 24, 1.2, 0.6, 2.5, 77};
    const auto video = h264::generate_mixed_video(vc, 0.25);
    h264::EncoderConfig ec{64, 64, 24, 12, 2, 4};
    h264::Encoder enc(ec);
    return enc.encode_annexb(video);
  }();
  return stream;
}

}  // namespace

static void BM_EncodeFrame(benchmark::State& state) {
  h264::VideoConfig vc{64, 64, 12, 1.2, 0.6, 2.5, 77};
  const auto video = h264::generate_test_video(vc);
  for (auto _ : state) {
    h264::EncoderConfig ec{64, 64, 24, 12, 2, 4};
    h264::Encoder enc(ec);
    benchmark::DoNotOptimize(enc.encode_annexb(video));
  }
  state.SetItemsProcessed(state.iterations() * vc.frames);
}
BENCHMARK(BM_EncodeFrame)->Unit(benchmark::kMillisecond);

static void BM_DecodeFrame(benchmark::State& state) {
  const auto& stream = encoded_stream();
  std::size_t frames = 0;
  for (auto _ : state) {
    h264::Decoder dec;
    const auto out = dec.decode_annexb(stream);
    frames += out.size();
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(frames));
}
BENCHMARK(BM_DecodeFrame)->Unit(benchmark::kMillisecond);

static void BM_DecodeFrameNoDeblock(benchmark::State& state) {
  const auto& stream = encoded_stream();
  for (auto _ : state) {
    h264::Decoder dec({.enable_deblock = false});
    benchmark::DoNotOptimize(dec.decode_annexb(stream).size());
  }
}
BENCHMARK(BM_DecodeFrameNoDeblock)->Unit(benchmark::kMillisecond);

static void BM_InputSelector(benchmark::State& state) {
  const auto& stream = encoded_stream();
  for (auto _ : state) {
    adaptive::InputSelector sel({140, 1});
    benchmark::DoNotOptimize(sel.filter_annexb(stream).size());
  }
}
BENCHMARK(BM_InputSelector)->Unit(benchmark::kMicrosecond);

static void BM_MfccFrame(benchmark::State& state) {
  signal::MfccConfig cfg;
  signal::MfccExtractor mfcc(cfg);
  std::vector<double> frame(cfg.frame_len);
  std::mt19937 rng(1);
  std::normal_distribution<double> d(0.0, 0.3);
  for (auto& v : frame) v = d(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mfcc.extract_frame(frame));
  }
}
BENCHMARK(BM_MfccFrame)->Unit(benchmark::kMicrosecond);

static void BM_FeatureExtraction(benchmark::State& state) {
  affect::SpeechSynthesizer synth(1);
  const auto utt =
      synth.synthesize(affect::Emotion::kHappy, 0, 1.6, 16000.0, 0.2);
  const affect::FeatureExtractor fx(affect::default_feature_config());
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.extract(utt.samples));
  }
}
BENCHMARK(BM_FeatureExtraction)->Unit(benchmark::kMillisecond);

template <nn::ModelKind Kind>
static void BM_ClassifierInference(benchmark::State& state) {
  nn::ClassifierSpec spec{17, 64, 7};
  std::mt19937 rng(1);
  nn::Sequential model = nn::build_model(Kind, spec, rng);
  nn::Matrix input(64, 17);
  std::normal_distribution<float> d(0.0f, 1.0f);
  for (auto& v : input.flat()) v = d(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.forward(input));
  }
}
BENCHMARK(BM_ClassifierInference<nn::ModelKind::kMlp>)
    ->Unit(benchmark::kMicrosecond)->Name("BM_InferenceMLP");
BENCHMARK(BM_ClassifierInference<nn::ModelKind::kCnn>)
    ->Unit(benchmark::kMicrosecond)->Name("BM_InferenceCNN");
BENCHMARK(BM_ClassifierInference<nn::ModelKind::kLstm>)
    ->Unit(benchmark::kMicrosecond)->Name("BM_InferenceLSTM");

static void BM_QuantizeModel(benchmark::State& state) {
  nn::ClassifierSpec spec{17, 64, 7};
  for (auto _ : state) {
    state.PauseTiming();
    std::mt19937 rng(1);
    nn::Sequential model = nn::build_model(nn::ModelKind::kLstm, spec, rng);
    state.ResumeTiming();
    benchmark::DoNotOptimize(nn::quantize_model_inplace(model));
  }
}
BENCHMARK(BM_QuantizeModel)->Unit(benchmark::kMillisecond);

static void BM_ProcessManagerLaunch(benchmark::State& state) {
  const auto catalog = android::build_catalog(android::EmulatorSpec{});
  android::FifoKillPolicy fifo;
  android::ProcessManagerConfig cfg;
  android::ProcessManager pm(catalog, cfg, fifo);
  double t = 0.0;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pm.launch(catalog[i % catalog.size()].id, t));
    t += 1.0;
    ++i;
  }
}
BENCHMARK(BM_ProcessManagerLaunch);

static void BM_AffectTableRank(benchmark::State& state) {
  const auto catalog = android::build_catalog(android::EmulatorSpec{});
  core::AppAffectTable table;
  table.learn_from_profile(affect::Emotion::kExcited, android::subject(3),
                           catalog);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.rank(affect::Emotion::kExcited));
  }
}
BENCHMARK(BM_AffectTableRank);

// --- Observability layer overhead (src/obs) --------------------------------
// These bound the per-event cost the AFFECTSYS_* macros add to
// instrumented hot loops: a cached-handle counter add and histogram
// observe should be a few ns, a cold registry lookup tens of ns.

static void BM_ObsCounterAdd(benchmark::State& state) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("bench.counter");
  for (auto _ : state) {
    c.add(1);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterAdd);

static void BM_ObsHistogramObserve(benchmark::State& state) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("bench.hist");
  double v = 1.0;
  for (auto _ : state) {
    h.observe(v);
    v = v < 1e9 ? v * 3.0 : 1.0;  // walk across buckets
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsHistogramObserve);

static void BM_ObsScopedTimer(benchmark::State& state) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("bench.timer_ns");
  for (auto _ : state) {
    obs::ScopedTimerNs timer(h);
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsScopedTimer);

static void BM_ObsRegistryLookup(benchmark::State& state) {
  obs::Registry reg;
  reg.counter("bench.lookup");  // pre-registered: measures the hot find
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.counter("bench.lookup"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsRegistryLookup);

static void BM_ObsRegistrySnapshot(benchmark::State& state) {
  obs::Registry reg;
  for (int i = 0; i < 64; ++i) {
    reg.counter("bench.c" + std::to_string(i)).add(static_cast<unsigned>(i));
    reg.histogram("bench.h" + std::to_string(i)).observe(i * 100.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.to_json());
  }
}
BENCHMARK(BM_ObsRegistrySnapshot)->Unit(benchmark::kMicrosecond);
