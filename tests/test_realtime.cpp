// Tests for the real-time pipeline: VAD gating, streaming classification
// and the sink (server) mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <random>
#include <vector>

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

// ---------------------------------------------------- feature row reuse

// Split extraction with overlap reuse (FeatureStream, the path every
// session runs) must stage exactly the matrix extract_into() computes
// from scratch on the same window.  The served-vs-standalone identity
// pins cannot see a reuse bug, since both of their sides reuse rows, so
// this compares every window against the non-reusing path across
// chunkings that put windows on and off the hop grid, two windows in
// one push, a capture gap, and a window whose tail frame is zero-padded.
// The rows copied (affect.feature_rows_reused) must match what the
// window positions allow: with hop 160, a window starting `shift`
// samples after the one before shares `usable - shift / 160` rows when
// the shift is whole hops, where `usable` counts the rows whose frames
// lie wholly inside a window.
namespace {

struct ReuseCase {
  const char* name;
  std::size_t chunk;          ///< samples per push
  double window_s = 1.0;
  double stride_s = 0.5;
  std::size_t usable = 64;    ///< rows wholly inside a window
  std::size_t stall_after = 0;  ///< push index followed by a 2 s capture gap
};

struct ReuseOutcome {
  std::size_t windows = 0;
  std::uint64_t resyncs = 0;
  std::vector<std::size_t> expected;  ///< rows each window may reuse
  /// How far each window's finish moved affect.feature_rows_reused.
  std::vector<std::size_t> counted;
  std::size_t first_after_gap = 0;    ///< index of the first resynced window
};

/// 8 utterances of 1.2 s, each followed by 0.5 s of silence.
std::vector<double> reuse_audio() {
  affect::SpeechSynthesizer synth(17);
  std::vector<double> audio;
  for (int u = 0; u < 8; ++u) {
    const auto utt = synth.synthesize(
        u % 2 ? affect::Emotion::kCalm : affect::Emotion::kAngry, 70 + u, 1.2,
        16000.0, 0.1);
    audio.insert(audio.end(), utt.samples.begin(), utt.samples.end());
    audio.insert(audio.end(), 8000, 0.0);
  }
  return audio;
}

ReuseOutcome run_reuse_case(const ReuseCase& rc,
                            affect::AffectClassifier& clf) {
  const affect::FeatureExtractor& fx = clf.features();
  const affectsys::obs::Counter& reused_total =
      affectsys::obs::Registry::global().counter("affect.feature_rows_reused");

  affect::RealtimeConfig cfg;
  cfg.window_s = rc.window_s;
  cfg.window_stride_s = rc.stride_s;
  affect::RealtimePipeline pipe(clf, cfg);
  affect::FeatureStream stream(fx);
  ReuseOutcome out;
  std::vector<std::vector<double>> copies;  // this push's windows
  bool has_prev = false;
  std::uint64_t prev_end = 0;
  std::uint64_t resyncs = 0;
  pipe.set_window_sink([&](double t_end, std::span<const double> w) {
    const affect::RealtimeStats& rs = pipe.stats();
    stream.push(t_end, w, rs.samples_in);  // as Session::on_window does
    copies.emplace_back(w.begin(), w.end());
    std::size_t may = 0;
    if (has_prev && rs.gap_resyncs == resyncs) {
      const std::uint64_t shift = rs.samples_in - prev_end;
      if (shift % 160 == 0 && shift / 160 < rc.usable) {
        may = rc.usable - static_cast<std::size_t>(shift / 160);
      }
    }
    if (rs.gap_resyncs != resyncs) out.first_after_gap = out.expected.size();
    out.expected.push_back(may);
    has_prev = true;
    prev_end = rs.samples_in;
    resyncs = rs.gap_resyncs;
  });

  const std::vector<double> audio = reuse_audio();
  affect::FeatureWorkspace ws;
  double gap_s = 0.0;
  std::size_t push = 0;
  for (std::size_t off = 0; off + rc.chunk <= audio.size();
       off += rc.chunk, ++push) {
    if (rc.stall_after != 0 && push == rc.stall_after + 1) gap_s = 2.0;
    pipe.push_audio(static_cast<double>(off) / 16000.0 + gap_s,
                    {audio.data() + off, rc.chunk});
    // Row step in two halves, back half first: any split, any order.
    for (std::size_t k = 0; k < stream.size(); ++k) {
      const affect::RowJob job = stream.job(k);
      const std::size_t mid = job.begin + (job.end - job.begin) / 2;
      fx.compute_rows(job.samples, mid, job.end, *job.raw);
      fx.compute_rows(job.samples, job.begin, mid, *job.raw);
    }
    for (std::size_t k = 0; k < stream.size(); ++k) {
      const std::uint64_t before = reused_total.value();
      const nn::Matrix& got = stream.finish(k);
      out.counted.push_back(
          static_cast<std::size_t>(reused_total.value() - before));
      const nn::Matrix& want = fx.extract_into(copies[k], ws);
      EXPECT_EQ(std::memcmp(got.flat().data(), want.flat().data(),
                            want.size() * sizeof(float)),
                0)
          << rc.name << ": window " << out.windows << " differs";
      pipe.apply_label(stream.t_end(k), affect::Emotion::kNeutral);
      ++out.windows;
    }
    stream.clear();
    copies.clear();
  }
  out.resyncs = pipe.stats().gap_resyncs;
  return out;
}

std::size_t sum(const std::vector<std::size_t>& v) {
  std::size_t s = 0;
  for (const std::size_t x : v) s += x;
  return s;
}

}  // namespace

TEST_F(PipelineFixture, FeatureReuseMatchesExtractIntoWindowForWindow) {
  const auto check_counter = [](const ReuseCase& rc, const ReuseOutcome& o) {
#if defined(AFFECTSYS_METRICS) && AFFECTSYS_METRICS
    EXPECT_EQ(o.counted, o.expected) << rc.name;
#else
    EXPECT_EQ(sum(o.counted), 0u) << rc.name;
#endif
  };

  // 0.1 s chunks, 0.5 s stride: consecutive windows 50 hops apart share
  // 14 of 64 rows.
  const ReuseCase on_grid{"1600-sample chunks", 1600};
  const ReuseOutcome a = run_reuse_case(on_grid, classifier());
  ASSERT_GT(a.windows, 10u);
  EXPECT_GT(sum(a.expected), 0u);
  for (const std::size_t r : a.expected) EXPECT_TRUE(r == 0 || r == 14);
  check_counter(on_grid, a);

  // 0.375 s chunks: windows end 6000 samples apart (37.5 hops, off the
  // grid) or 12000 (75 hops, past the overlap), so nothing is shared.
  const ReuseCase off_grid{"6000-sample chunks", 6000};
  const ReuseOutcome b = run_reuse_case(off_grid, classifier());
  ASSERT_GT(b.windows, 10u);
  EXPECT_EQ(sum(b.expected), 0u);
  check_counter(off_grid, b);

  // 0.75 s chunks: every other push fires two windows on one buffer,
  // and the second copies all 64 rows of the first.
  const ReuseCase twice{"12000-sample chunks", 12000};
  const ReuseOutcome c = run_reuse_case(twice, classifier());
  ASSERT_GT(c.windows, 10u);
  EXPECT_GT(std::count(c.expected.begin(), c.expected.end(), 64u), 0);
  check_counter(twice, c);

  // A 2 s capture gap past gap_tolerance_s resyncs the buffer: the first
  // window after it reuses nothing, the ones after reuse again.
  const ReuseCase stall{"stall", 1600, 1.0, 0.5, 64, 60};
  const ReuseOutcome d = run_reuse_case(stall, classifier());
  ASSERT_EQ(d.resyncs, 1u);
  ASSERT_GT(d.first_after_gap, 0u);
  ASSERT_LT(d.first_after_gap + 1, d.expected.size());
  EXPECT_EQ(d.expected[d.first_after_gap], 0u);
  EXPECT_GT(std::accumulate(d.expected.begin() +
                                static_cast<std::ptrdiff_t>(d.first_after_gap),
                            d.expected.end(), std::size_t{0}),
            0u);
  check_counter(stall, d);

  // 0.5 s windows feed 49 rows, but the 49th frame runs 80 samples past
  // the window and is zero-padded, so only 48 rows can be shared: a
  // 0.2 s stride (20 hops) shares 28.  (The stride clock accumulates
  // 0.2 s steps in floating point, so some windows fire a chunk early
  // or late and share 38 or 18 rows instead.)
  const ReuseCase padded{"zero-padded tail", 1600, 0.5, 0.2, 48};
  const ReuseOutcome e = run_reuse_case(padded, classifier());
  ASSERT_GT(e.windows, 10u);
  EXPECT_GT(std::count(e.expected.begin(), e.expected.end(), 28u), 0);
  EXPECT_GT(sum(e.expected), 0u);
  check_counter(padded, e);
}
