// Inference-ladder tests: ladder-off byte identity against the
// pre-ladder server, two-run replay identity for a lossy ladder-on
// fleet (rung traces included), dwell-hysteresis no-flap, HDC
// train/infer determinism, and the truncate_bits == 0 byte-identity
// guarantee for approximate feature storage.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "affect/hdc.hpp"
#include "affect/speech_synth.hpp"
#include "core/thread_pool.hpp"
#include "nn/model.hpp"
#include "serve/server.hpp"

namespace affect = affectsys::affect;
namespace nn = affectsys::nn;
namespace serve = affectsys::serve;

namespace {

affect::CorpusProfile ladder_profile() {
  affect::CorpusProfile prof;
  prof.name = "serve-ladder";
  prof.num_speakers = 4;
  prof.emotions = {affect::Emotion::kAngry, affect::Emotion::kCalm};
  prof.utterances_per_speaker_emotion = 6;
  prof.utterance_seconds = 1.0;
  prof.speaker_spread = 0.1;
  return prof;
}

/// One classifier + one HDC model + one workload, shared by every test
/// in this file; immutable after construction.
struct LadderWorld {
  serve::SharedWorkload workload;
  affect::AffectClassifier classifier;
  affect::HdcClassifier hdc;

  LadderWorld()
      : workload(serve::WorkloadConfig{}),
        classifier([] {
          nn::TrainConfig tc;
          tc.epochs = 8;
          tc.batch_size = 8;
          tc.learning_rate = 2e-3f;
          return affect::train_affect_classifier(nn::ModelKind::kMlp,
                                                 ladder_profile(), tc);
        }()),
        hdc(affect::train_hdc_classifier(ladder_profile(),
                                         affect::HdcConfig{})) {}

  serve::SessionEnv env(bool with_hdc) {
    serve::SessionEnv env;
    env.workload = &workload;
    env.classifier = &classifier;
    if (with_hdc) env.hdc = &hdc;
    return env;
  }
};

LadderWorld& world() {
  static LadderWorld w;
  return w;
}

/// Byte-level report comparison (windows + traces + digest + stats).
testing::AssertionResult reports_identical(const serve::SessionReport& a,
                                           const serve::SessionReport& b) {
  if (a.windows.size() != b.windows.size()) {
    return testing::AssertionFailure() << "window counts differ";
  }
  for (std::size_t i = 0; i < a.windows.size(); ++i) {
    const auto& wa = a.windows[i];
    const auto& wb = b.windows[i];
    if (wa.seq != wb.seq || wa.t_end != wb.t_end ||
        wa.emotion != wb.emotion ||
        std::memcmp(&wa.confidence, &wb.confidence, sizeof(float)) != 0 ||
        wa.probabilities.size() != wb.probabilities.size() ||
        (!wa.probabilities.empty() &&
         std::memcmp(wa.probabilities.data(), wb.probabilities.data(),
                     wa.probabilities.size() * sizeof(float)) != 0)) {
      return testing::AssertionFailure() << "window " << i << " differs";
    }
  }
  if (a.stable_trace != b.stable_trace) {
    return testing::AssertionFailure() << "stable traces differ";
  }
  if (a.rung_trace != b.rung_trace) {
    return testing::AssertionFailure() << "rung traces differ";
  }
  if (a.decode_digest != b.decode_digest) {
    return testing::AssertionFailure() << "decode digests differ";
  }
  if (std::memcmp(&a.stats, &b.stats, sizeof(a.stats)) != 0) {
    return testing::AssertionFailure() << "session stats differ";
  }
  return testing::AssertionSuccess();
}

struct FleetOutcome {
  std::vector<serve::SessionReport> reports;
  serve::ServerStats stats;
};

FleetOutcome run_fleet(const serve::ServerConfig& cfg,
                       serve::SessionEnv env, std::size_t sessions,
                       int ticks) {
  serve::SessionManager server(cfg, env);
  std::vector<serve::SessionId> ids;
  for (std::size_t i = 0; i < sessions; ++i) {
    ids.push_back(server.create_session());
  }
  for (int i = 0; i < ticks; ++i) server.tick();
  server.drain();
  FleetOutcome out;
  for (const auto id : ids) out.reports.push_back(server.report(id));
  out.stats = server.stats();
  return out;
}

/// A ladder config that engages unconditionally: pressure rises every
/// tick (backlog_hi 0) and every session is always eligible.
serve::LadderConfig eager_ladder() {
  serve::LadderConfig lc;
  lc.enabled = true;
  lc.backlog_hi = 0;
  lc.backlog_lo = 0;
  lc.conf_int8 = 0.0f;
  lc.conf_hdc = 0.0f;
  lc.calm_windows = 0;
  lc.hysteresis_ticks = 1;
  return lc;
}

}  // namespace

// --------------------------------------------------- ladder-off identity

// The master switch actually masters: a server built with the ladder
// compiled in but disabled (the default), with cheap-rung models
// available in the env, reproduces the no-ladder run byte for byte —
// and stages every window on fp32.
TEST(LadderOff, ByteIdenticalToPreLadderServer) {
  const serve::ServerConfig cfg;  // ladder.enabled defaults to false
  const FleetOutcome base = run_fleet(cfg, world().env(false), 4, 120);
  const FleetOutcome got = run_fleet(cfg, world().env(true), 4, 120);

  ASSERT_EQ(base.reports.size(), got.reports.size());
  for (std::size_t i = 0; i < base.reports.size(); ++i) {
    EXPECT_TRUE(reports_identical(base.reports[i], got.reports[i]))
        << "session " << i;
    // Non-trivial run, all of it on the reference rung.
    EXPECT_GT(got.reports[i].stats.windows_enqueued, 10u);
    EXPECT_EQ(got.reports[i].stats.windows_int8, 0u);
    EXPECT_EQ(got.reports[i].stats.windows_hdc, 0u);
    EXPECT_EQ(got.reports[i].stats.rung_switches, 0u);
    EXPECT_TRUE(got.reports[i].rung_trace.empty());
  }
  EXPECT_EQ(base.stats.max_ladder_pressure, 0);
  EXPECT_EQ(got.stats.max_ladder_pressure, 0);
}

// ---------------------------------------------------- ladder-on replay

// A ladder-on fleet with a 64-row batcher under transport loss and
// seeded faults replays exactly: run twice, byte-compare every report
// including the rung traces.  The run must actually exercise the cheap
// rungs for the identity to mean anything.
TEST(LadderOn, TwoRunLossyReplayIdentity) {
  serve::ServerConfig cfg;
  cfg.batcher.max_batch = 64;
  cfg.ladder = eager_ladder();
  cfg.fault.rate = 0.05;
  cfg.fault.seed = 99;
  cfg.session.transport.enabled = true;
  cfg.session.transport.fec.enabled = true;
  cfg.session.fault.rate = 0.05;
  cfg.session.fault.seed = 17;

  const FleetOutcome a = run_fleet(cfg, world().env(true), 6, 120);
  const FleetOutcome b = run_fleet(cfg, world().env(true), 6, 120);

  ASSERT_EQ(a.reports.size(), b.reports.size());
  std::uint64_t cheap_windows = 0;
  std::uint64_t lost = 0;
  for (std::size_t i = 0; i < a.reports.size(); ++i) {
    EXPECT_TRUE(reports_identical(a.reports[i], b.reports[i]))
        << "session " << i;
    cheap_windows +=
        a.reports[i].stats.windows_int8 + a.reports[i].stats.windows_hdc;
    lost += a.reports[i].transport.packets_lost;
  }
  EXPECT_GT(cheap_windows, 0u) << "ladder never engaged a cheap rung";
  EXPECT_GT(lost, 0u) << "transport loss never fired";
  EXPECT_EQ(std::memcmp(&a.stats, &b.stats, sizeof(a.stats)), 0);
  EXPECT_GT(a.stats.max_ladder_pressure, 0);
}

// -------------------------------------------------------- hysteresis

// Rung moves obey the dwell clock: one step per move, never two moves
// within hysteresis_ticks of each other — whatever the backlog does.
TEST(LadderOn, RungTraceRespectsDwellAndSingleStepping) {
  serve::ServerConfig cfg;
  cfg.ladder = eager_ladder();
  cfg.ladder.hysteresis_ticks = 7;

  const FleetOutcome out = run_fleet(cfg, world().env(true), 4, 150);
  std::size_t moves = 0;
  for (const auto& report : out.reports) {
    serve::Rung prev = serve::Rung::kFp32;
    std::uint64_t prev_tick = 0;
    bool first = true;
    for (const auto& [tick, rung] : report.rung_trace) {
      const int step = std::abs(static_cast<int>(rung) -
                                static_cast<int>(prev));
      EXPECT_EQ(step, 1) << "rung move is not a single step";
      if (!first) {
        EXPECT_GE(tick - prev_tick, 7u)
            << "two moves inside the dwell window";
      }
      prev = rung;
      prev_tick = tick;
      first = false;
      ++moves;
    }
    EXPECT_EQ(report.stats.rung_switches, report.rung_trace.size());
  }
  EXPECT_GT(moves, 0u) << "no rung moves recorded";
}

// ------------------------------------------------- HDC determinism

// Training is a pure function of (config, corpus, seeds): two
// independent trainings produce bit-identical prototypes, and repeated
// inference on the same window is bit-identical too.
TEST(Hdc, TrainAndInferRoundTripIsDeterministic) {
  affectsys::core::set_global_threads(0);
  const affect::HdcConfig cfg;
  affect::HdcClassifier a =
      affect::train_hdc_classifier(ladder_profile(), cfg);
  affect::HdcClassifier b =
      affect::train_hdc_classifier(ladder_profile(), cfg);
  affectsys::core::set_global_threads(
      affectsys::core::default_thread_count());

  ASSERT_TRUE(a.trained());
  ASSERT_EQ(a.label_set().size(), b.label_set().size());
  for (std::size_t cls = 0; cls < a.label_set().size(); ++cls) {
    const auto pa = a.prototype(cls);
    const auto pb = b.prototype(cls);
    ASSERT_EQ(pa.size(), pb.size());
    EXPECT_EQ(0, std::memcmp(pa.data(), pb.data(),
                             pa.size() * sizeof(std::uint64_t)))
        << "class " << cls;
  }

  nn::Matrix x(a.timesteps(), a.feature_dim());
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.flat()[i] = 0.01f * static_cast<float>(static_cast<int>(i % 200) - 100);
  }
  affect::HdcWorkspace wsa, wsb;
  affect::ClassificationResult ra, rb;
  a.classify_into(x.flat(), x.rows(), x.cols(), wsa, ra);
  b.classify_into(x.flat(), x.rows(), x.cols(), wsb, rb);
  EXPECT_EQ(ra.emotion, rb.emotion);
  ASSERT_EQ(ra.probabilities.size(), rb.probabilities.size());
  EXPECT_EQ(0, std::memcmp(ra.probabilities.data(), rb.probabilities.data(),
                           ra.probabilities.size() * sizeof(float)));
  // Same workspace reused: still bit-identical (no state leaks).
  affect::ClassificationResult ra2;
  a.classify_into(x.flat(), x.rows(), x.cols(), wsa, ra2);
  EXPECT_EQ(0, std::memcmp(ra.probabilities.data(), ra2.probabilities.data(),
                           ra.probabilities.size() * sizeof(float)));
}

// Off-default geometries walk the bundler's tail paths: a word count
// that is not a multiple of the 256-bit block (dim_bits 8256 -> 129
// words), and channel counts hitting the 8-group and single-channel
// tails (temporal_pool 4 -> 68 = 4x16 + 4 singles, 3 -> 51, 1 -> 17).
// Each must still train deterministically and classify consistently.
TEST(Hdc, TailGeometriesAreDeterministic) {
  affectsys::core::set_global_threads(0);
  struct Shape {
    std::size_t dim_bits;
    std::size_t pool;
  };
  for (const auto& shape :
       {Shape{8256, 8}, Shape{8192, 4}, Shape{4096, 3}, Shape{8192, 1}}) {
    affect::HdcConfig cfg;
    cfg.dim_bits = shape.dim_bits;
    cfg.temporal_pool = shape.pool;
    affect::HdcClassifier a =
        affect::train_hdc_classifier(ladder_profile(), cfg);
    affect::HdcClassifier b =
        affect::train_hdc_classifier(ladder_profile(), cfg);
    for (std::size_t cls = 0; cls < a.label_set().size(); ++cls) {
      const auto pa = a.prototype(cls);
      const auto pb = b.prototype(cls);
      ASSERT_EQ(pa.size(), pb.size());
      EXPECT_EQ(0, std::memcmp(pa.data(), pb.data(),
                               pa.size() * sizeof(std::uint64_t)))
          << "dim " << shape.dim_bits << " pool " << shape.pool << " class "
          << cls;
    }
    nn::Matrix x(a.timesteps(), a.feature_dim());
    for (std::size_t i = 0; i < x.size(); ++i) {
      x.flat()[i] =
          0.01f * static_cast<float>(static_cast<int>(i % 200) - 100);
    }
    affect::HdcWorkspace ws;
    affect::ClassificationResult r1, r2;
    a.classify_into(x.flat(), x.rows(), x.cols(), ws, r1);
    a.classify_into(x.flat(), x.rows(), x.cols(), ws, r2);
    ASSERT_EQ(r1.probabilities.size(), r2.probabilities.size());
    EXPECT_EQ(0, std::memcmp(r1.probabilities.data(), r2.probabilities.data(),
                             r1.probabilities.size() * sizeof(float)))
        << "dim " << shape.dim_bits << " pool " << shape.pool;
  }
  affectsys::core::set_global_threads(
      affectsys::core::default_thread_count());
}

// ------------------------------------------------ approximate storage

// truncate_bits == 0 is a byte-identity guarantee; truncated runs are
// still deterministic (two-run identity).
TEST(Truncation, ZeroBitsIsByteIdenticalAndLossyRunsReplay) {
  serve::ServerConfig base_cfg;
  const FleetOutcome base = run_fleet(base_cfg, world().env(false), 3, 120);

  serve::ServerConfig zero_cfg = base_cfg;
  zero_cfg.ladder.truncate_bits = 0;  // explicit: the default
  const FleetOutcome zero = run_fleet(zero_cfg, world().env(false), 3, 120);
  ASSERT_EQ(base.reports.size(), zero.reports.size());
  for (std::size_t i = 0; i < base.reports.size(); ++i) {
    EXPECT_TRUE(reports_identical(base.reports[i], zero.reports[i]))
        << "session " << i;
  }

  serve::ServerConfig lossy_cfg = base_cfg;
  lossy_cfg.ladder.truncate_bits = 10;
  const FleetOutcome lossy_a =
      run_fleet(lossy_cfg, world().env(false), 3, 120);
  const FleetOutcome lossy_b =
      run_fleet(lossy_cfg, world().env(false), 3, 120);
  ASSERT_EQ(lossy_a.reports.size(), lossy_b.reports.size());
  for (std::size_t i = 0; i < lossy_a.reports.size(); ++i) {
    EXPECT_TRUE(reports_identical(lossy_a.reports[i], lossy_b.reports[i]))
        << "session " << i;
    // The run still classifies windows through the truncated features.
    EXPECT_GT(lossy_a.reports[i].stats.windows_enqueued, 10u);
  }
}
