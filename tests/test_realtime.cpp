// Tests for the real-time pipeline: VAD gating, streaming classification
// and the sink (server) mode.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "affect/realtime.hpp"
#include "affect/speech_synth.hpp"
#include "nn/model.hpp"
#include "obs/metrics.hpp"

namespace affect = affectsys::affect;
namespace nn = affectsys::nn;

// ---------------------------------------------------------------------- VAD

TEST(Vad, SilenceIsRejected) {
  affect::VoiceActivityDetector vad({});
  std::vector<double> silence(16000, 0.0);
  EXPECT_EQ(vad.speech_fraction(silence), 0.0);
}

TEST(Vad, SpeechIsAccepted) {
  affect::SpeechSynthesizer synth(1);
  const auto utt =
      synth.synthesize(affect::Emotion::kAngry, 0, 1.5, 16000.0, 0.1);
  affect::VoiceActivityDetector vad({});
  EXPECT_GT(vad.speech_fraction(utt.samples), 0.4);
}

TEST(Vad, NoiseFloorAdaptsToStationaryNoise) {
  affect::VadConfig cfg;
  affect::VoiceActivityDetector vad(cfg);
  std::mt19937 rng(2);
  std::normal_distribution<double> d(0.0, 0.01);
  std::vector<double> noise(32000);
  for (auto& v : noise) v = d(rng);
  // After adaptation, stationary low-level noise is mostly non-speech.
  vad.speech_fraction(noise);  // first pass adapts
  const double frac = vad.speech_fraction(noise);
  EXPECT_LT(frac, 0.4);
  EXPECT_GT(vad.noise_floor(), 1e-4);
}

TEST(Vad, HangoverBridgesShortPauses) {
  affect::VadConfig cfg;
  cfg.hangover_frames = 8;
  affect::VoiceActivityDetector vad(cfg);
  std::vector<double> loud(cfg.frame_len, 0.5);
  std::vector<double> quiet(cfg.frame_len, 0.0);
  EXPECT_TRUE(vad.process_frame(loud));
  // Hangover keeps the next few silent frames marked as speech.
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(vad.process_frame(quiet)) << "frame " << i;
  }
  EXPECT_FALSE(vad.process_frame(quiet));
}

// ----------------------------------------------------------------- pipeline

class PipelineFixture : public ::testing::Test {
 protected:
  static affect::AffectClassifier& classifier() {
    static affect::AffectClassifier clf = [] {
      affect::CorpusProfile prof;
      prof.name = "rt";
      prof.num_speakers = 4;
      prof.emotions = {affect::Emotion::kAngry, affect::Emotion::kCalm};
      prof.utterances_per_speaker_emotion = 6;
      prof.utterance_seconds = 1.0;
      prof.speaker_spread = 0.1;
      nn::TrainConfig tc;
      tc.epochs = 8;
      tc.batch_size = 8;
      tc.learning_rate = 2e-3f;
      return affect::train_affect_classifier(nn::ModelKind::kMlp, prof, tc);
    }();
    return clf;
  }
};

TEST_F(PipelineFixture, SilenceNeverInvokesClassifier) {
  affect::RealtimeConfig cfg;
  affect::RealtimePipeline pipe(classifier(), cfg);
  std::vector<double> silence(1600, 0.0);
  double t = 0.0;
  for (int i = 0; i < 30; ++i) {
    pipe.push_audio(t, silence);
    t += 0.1;
  }
  EXPECT_GT(pipe.stats().windows_considered, 0u);
  EXPECT_EQ(pipe.stats().windows_classified, 0u);
}

TEST_F(PipelineFixture, SustainedSpeechConvergesToTruth) {
  affect::RealtimeConfig cfg;
  cfg.stream.vote_window = 3;
  cfg.stream.min_dwell_s = 0.0;
  affect::RealtimePipeline pipe(classifier(), cfg);

  affect::SpeechSynthesizer synth(3);
  double t = 0.0;
  int raw_labels = 0;
  pipe.on_raw_label([&](double, affect::Emotion, float) { ++raw_labels; });
  // Stream 8 seconds of angry speech in 100 ms chunks.
  for (int u = 0; u < 8; ++u) {
    const auto utt =
        synth.synthesize(affect::Emotion::kAngry, 80 + u, 1.0, 16000.0, 0.1);
    for (std::size_t off = 0; off < utt.samples.size(); off += 1600) {
      const std::size_t n = std::min<std::size_t>(1600, utt.samples.size() - off);
      pipe.push_audio(t, {utt.samples.data() + off, n});
      t += 0.1;
    }
  }
  EXPECT_GT(pipe.stats().windows_classified, 4u);
  EXPECT_GT(raw_labels, 0);
  EXPECT_EQ(pipe.stable_emotion(), affect::Emotion::kAngry);
}

// Regression test for the window-scheduler drift bug: the next deadline
// used to be anchored to buffer_end_t_, so the effective stride was
// quantized up to the chunk boundary (chunks not dividing the stride)
// and chunks longer than the stride considered only one window per
// chunk, silently skipping the rest.  The deadline clock must tick in
// exact strides from the moment the first full window is available,
// independent of chunk size.
TEST_F(PipelineFixture, WindowCountMatchesAnalyticRegardlessOfChunkSize) {
  // All durations are binary-representable so the analytic count below is
  // exact: window 1.0 s, stride 0.5 s, chunks of 0.375 s (< stride, not a
  // divisor of it) and 0.75 s (> stride).
  for (const double chunk_s : {0.375, 0.75}) {
    affect::RealtimeConfig cfg;
    ASSERT_EQ(cfg.window_s, 1.0);
    ASSERT_EQ(cfg.window_stride_s, 0.5);
    affect::RealtimePipeline pipe(classifier(), cfg);

    const auto chunk_len =
        static_cast<std::size_t>(chunk_s * cfg.sample_rate_hz);
    const std::vector<double> silence(chunk_len, 0.0);
    const std::size_t n_chunks =
        static_cast<std::size_t>(30.0 / chunk_s);  // 30 s total
    for (std::size_t i = 0; i < n_chunks; ++i) {
      pipe.push_audio(static_cast<double>(i) * chunk_s, silence);
    }

    // First window fires once one full window of audio has arrived, i.e.
    // after ceil(window / chunk) chunks; one more window per stride after
    // that, up to the stream end.
    const auto chunks_to_fill = static_cast<std::size_t>(
        std::ceil(cfg.window_s / chunk_s));
    const double t_first = static_cast<double>(chunks_to_fill) * chunk_s;
    const double total_s = static_cast<double>(n_chunks) * chunk_s;
    const auto expected =
        static_cast<std::uint64_t>((total_s - t_first) /
                                   cfg.window_stride_s) + 1;
    EXPECT_EQ(pipe.stats().windows_considered, expected)
        << "chunk_s=" << chunk_s;
    // Silence: the VAD gate saves every classifier invocation.
    EXPECT_EQ(pipe.stats().windows_classified, 0u);
  }
}

// ---------------------------------------------------- sink (server) mode

// Sink mode is the session server's attachment point: windows that
// survive the VAD gate are handed out for external (batched) inference
// and results come back through apply_label().

TEST_F(PipelineFixture, SinkReceivesEveryVadSurvivingWindow) {
  affect::RealtimeConfig cfg;
  affect::RealtimePipeline pipe(classifier(), cfg);
  std::vector<std::pair<double, std::size_t>> delivered;
  pipe.set_window_sink([&](double t_end, std::span<const double> w) {
    delivered.emplace_back(t_end, w.size());
    // Apply a result immediately, as an unloaded server would.
    pipe.apply_label(t_end, affect::Emotion::kAngry);
  });

  affect::SpeechSynthesizer synth(3);
  double t = 0.0;
  for (int u = 0; u < 4; ++u) {
    const auto utt =
        synth.synthesize(affect::Emotion::kAngry, 60 + u, 1.0, 16000.0, 0.1);
    for (std::size_t off = 0; off < utt.samples.size(); off += 1600) {
      const std::size_t n =
          std::min<std::size_t>(1600, utt.samples.size() - off);
      pipe.push_audio(t, {utt.samples.data() + off, n});
      t += 0.1;
    }
  }
  ASSERT_FALSE(delivered.empty());
  EXPECT_EQ(delivered.size(), pipe.stats().windows_classified);
  EXPECT_EQ(pipe.dropped(), 0u);
  const std::size_t window_len = static_cast<std::size_t>(16000.0 * 1.0);
  for (const auto& [t_end, n] : delivered) EXPECT_EQ(n, window_len);
  // Labels applied through apply_label() drive the smoothing stream
  // exactly like internal classification would.
  EXPECT_EQ(pipe.stable_emotion(), affect::Emotion::kAngry);
  EXPECT_GT(pipe.stats().stable_changes, 0u);
}

TEST_F(PipelineFixture, SinkModeShedsNewestWindowBeyondMaxInflight) {
  affect::RealtimeConfig cfg;
  cfg.max_inflight = 2;
  const affectsys::obs::Counter& dropped_total =
      affectsys::obs::Registry::global().counter("affect.windows_dropped");
  const std::uint64_t dropped_before = dropped_total.value();
  affect::RealtimePipeline pipe(classifier(), cfg);
  std::vector<double> pending_t;
  pipe.set_window_sink(
      [&](double t_end, std::span<const double>) { pending_t.push_back(t_end); });

  affect::SpeechSynthesizer synth(3);
  double t = 0.0;
  for (int u = 0; u < 6; ++u) {
    const auto utt =
        synth.synthesize(affect::Emotion::kAngry, 30 + u, 1.0, 16000.0, 0.1);
    for (std::size_t off = 0; off < utt.samples.size(); off += 1600) {
      const std::size_t n =
          std::min<std::size_t>(1600, utt.samples.size() - off);
      pipe.push_audio(t, {utt.samples.data() + off, n});
      t += 0.1;
    }
  }
  // Nobody applied results, so only max_inflight windows were ever
  // delivered; the rest were shed (drop-newest) and counted.
  EXPECT_EQ(pending_t.size(), cfg.max_inflight);
  EXPECT_GT(pipe.dropped(), 0u);
  EXPECT_EQ(pipe.dropped(), pipe.stats().windows_dropped);
#if defined(AFFECTSYS_METRICS) && AFFECTSYS_METRICS
  // The aggregate registry counter saw the same sheds.
  EXPECT_EQ(dropped_total.value() - dropped_before, pipe.dropped());
#else
  EXPECT_EQ(dropped_total.value(), dropped_before);
#endif

  // Applying a result frees a slot: the next surviving window flows.
  pipe.apply_label(pending_t.front(), affect::Emotion::kAngry);
  const auto before = pending_t.size();
  const auto utt =
      synth.synthesize(affect::Emotion::kAngry, 99, 1.5, 16000.0, 0.1);
  for (std::size_t off = 0; off < utt.samples.size(); off += 1600) {
    const std::size_t n = std::min<std::size_t>(1600, utt.samples.size() - off);
    pipe.push_audio(t, {utt.samples.data() + off, n});
    t += 0.1;
  }
  EXPECT_GT(pending_t.size(), before);
}
