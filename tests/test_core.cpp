// Tests for the emotional app manager core: affect table, rank generator,
// emotional kill policy, manager experiment and the system controller.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/affect_table.hpp"
#include "core/controller.hpp"
#include "core/emotional_policy.hpp"
#include "core/manager_experiment.hpp"

namespace core = affectsys::core;
namespace android = affectsys::android;
namespace affect = affectsys::affect;
namespace adaptive = affectsys::adaptive;

// -------------------------------------------------------------- affect table

TEST(AffectTable, ObserveAccumulates) {
  core::AppAffectTable table;
  EXPECT_FALSE(table.knows(affect::Emotion::kExcited));
  table.observe(affect::Emotion::kExcited, 1);
  table.observe(affect::Emotion::kExcited, 1);
  table.observe(affect::Emotion::kExcited, 2);
  EXPECT_TRUE(table.knows(affect::Emotion::kExcited));
  EXPECT_GT(table.score(affect::Emotion::kExcited, 1),
            table.score(affect::Emotion::kExcited, 2));
  EXPECT_EQ(table.score(affect::Emotion::kCalm, 1), 0.0);
}

TEST(AffectTable, RankIsSortedByScore) {
  core::AppAffectTable table;
  table.observe(affect::Emotion::kCalm, 5, 1.0);
  table.observe(affect::Emotion::kCalm, 6, 3.0);
  table.observe(affect::Emotion::kCalm, 7, 2.0);
  const auto rank = table.rank(affect::Emotion::kCalm);
  ASSERT_EQ(rank.size(), 3u);
  EXPECT_EQ(rank[0], 6u);
  EXPECT_EQ(rank[1], 7u);
  EXPECT_EQ(rank[2], 5u);
}

TEST(AffectTable, ProfileLearningFavoursProfileCategories) {
  const auto catalog = android::build_catalog(android::EmulatorSpec{});
  core::AppAffectTable table;
  table.learn_from_profile(affect::Emotion::kExcited, android::subject(3),
                           catalog);
  // Subject 3 (excited) uses calling heavily and calculator essentially
  // never.
  const auto calling =
      android::apps_in_category(catalog, android::AppCategory::kCalling);
  const auto calc =
      android::apps_in_category(catalog, android::AppCategory::kCalculator);
  ASSERT_FALSE(calling.empty());
  ASSERT_FALSE(calc.empty());
  double calling_best = 0.0;
  for (auto id : calling) {
    calling_best =
        std::max(calling_best, table.score(affect::Emotion::kExcited, id));
  }
  for (auto id : calc) {
    EXPECT_LT(table.score(affect::Emotion::kExcited, id), calling_best);
  }
}

TEST(AffectTable, ScoresArePerEmotion) {
  const auto catalog = android::build_catalog(android::EmulatorSpec{});
  core::AppAffectTable table;
  table.learn_from_profile(affect::Emotion::kExcited, android::subject(3),
                           catalog);
  table.learn_from_profile(affect::Emotion::kCalm, android::subject(4),
                           catalog);
  // Rankings must differ between the two emotions (different profiles).
  EXPECT_NE(table.rank(affect::Emotion::kExcited),
            table.rank(affect::Emotion::kCalm));
}

// ---------------------------------------------------------- emotional policy

TEST(EmotionalPolicy, KillsLowestScoreForCurrentEmotion) {
  core::AppAffectTable table;
  table.observe(affect::Emotion::kExcited, 1, 10.0);
  table.observe(affect::Emotion::kExcited, 2, 1.0);
  table.observe(affect::Emotion::kExcited, 3, 5.0);
  core::EmotionalKillPolicy policy(table);
  policy.set_emotion(affect::Emotion::kExcited);
  std::vector<android::VictimCandidate> c = {
      {1, 0.0, 0.0, 100, 1}, {2, 1.0, 1.0, 100, 1}, {3, 2.0, 2.0, 100, 1}};
  EXPECT_EQ(policy.select_victim(c), 2u);
}

TEST(EmotionalPolicy, RerankOnEmotionChange) {
  core::AppAffectTable table;
  table.observe(affect::Emotion::kExcited, 1, 10.0);
  table.observe(affect::Emotion::kExcited, 2, 1.0);
  table.observe(affect::Emotion::kCalm, 1, 1.0);
  table.observe(affect::Emotion::kCalm, 2, 10.0);
  core::EmotionalKillPolicy policy(table);
  std::vector<android::VictimCandidate> c = {{1, 0.0, 0.0, 100, 1},
                                             {2, 1.0, 1.0, 100, 1}};
  policy.set_emotion(affect::Emotion::kExcited);
  EXPECT_EQ(policy.select_victim(c), 2u);
  policy.set_emotion(affect::Emotion::kCalm);
  EXPECT_EQ(policy.select_victim(c), 1u);
}

TEST(EmotionalPolicy, UnknownEmotionDefersToFallback) {
  core::AppAffectTable table;  // empty: knows() nothing
  core::EmotionalKillPolicy policy(table);
  policy.set_emotion(affect::Emotion::kSad);
  std::vector<android::VictimCandidate> c = {{1, 0.0, 0.0, 100, 1}};
  EXPECT_EQ(policy.select_victim(c), std::nullopt);
}

// -------------------------------------------------------- manager experiment

TEST(ManagerExperiment, DefaultTimelineIsExcitedThenCalm) {
  const core::ManagerExperimentConfig cfg;
  ASSERT_EQ(cfg.timeline.segments.size(), 2u);
  EXPECT_EQ(cfg.timeline.segments[0].emotion, affect::Emotion::kExcited);
  EXPECT_EQ(cfg.timeline.segments[0].end_s, 12.0 * 60.0);
  EXPECT_EQ(cfg.timeline.segments[1].emotion, affect::Emotion::kCalm);
  EXPECT_EQ(cfg.timeline.duration_s(), 20.0 * 60.0);
}

TEST(ManagerExperiment, ProposedBeatsBaseline) {
  core::ManagerExperimentConfig cfg;
  const auto res = core::run_manager_experiment(cfg);
  // Identical usage sequence under both policies.
  EXPECT_FALSE(res.events.empty());
  EXPECT_GT(res.baseline.cold_starts, 0u);
  // Fig 10: the emotion-driven manager loads less memory and spends less
  // loading time than the FIFO default.
  EXPECT_GT(res.memory_saving(), 0.0);
  EXPECT_GT(res.time_saving(), 0.0);
  EXPECT_LT(res.memory_saving(), 0.5);
  EXPECT_LT(res.time_saving(), 0.5);
}

TEST(ManagerExperiment, SavingsRobustAcrossSeeds) {
  double worst_mem = 1.0;
  for (unsigned seed : {1u, 2u, 3u}) {
    core::ManagerExperimentConfig cfg;
    cfg.monkey.seed = seed;
    const auto res = core::run_manager_experiment(cfg);
    worst_mem = std::min(worst_mem, res.memory_saving());
  }
  EXPECT_GT(worst_mem, 0.05);
}

TEST(ManagerExperiment, AlternativeBaselines) {
  for (const char* baseline : {"lru", "frequency"}) {
    core::ManagerExperimentConfig cfg;
    cfg.baseline = baseline;
    const auto res = core::run_manager_experiment(cfg);
    EXPECT_GT(res.baseline.cold_starts, 0u) << baseline;
  }
  EXPECT_THROW(core::make_baseline_policy("bogus"), std::invalid_argument);
}

TEST(ManagerExperiment, OnlineLearnedTableAlsoSaves) {
  core::ManagerExperimentConfig cfg;
  cfg.table_source = core::AffectTableSource::kOnlineWarmup;
  const auto res = core::run_manager_experiment(cfg);
  // A table learned from finite warm-up observation should still beat the
  // FIFO baseline (possibly by less than the analytic oracle).
  EXPECT_GT(res.memory_saving(), 0.0);
}

// Fig 10's baseline and proposed runs at the default config and at
// monkey seed 5, pinned exactly: launch and kill counts and loaded
// bytes, loading time and flash energy bit for bit, and the count of
// every trace event type (the total pins that no other type occurs).
TEST(ManagerExperiment, DefaultRunsArePinned) {
  struct Pin {
    std::uint64_t cold, warm, kills, loaded_bytes;
    double loading_time_s, flash_energy_nj;
    std::size_t emotion_changes, events;
  };
  const auto check = [](const android::LoadingMetrics& m,
                        const android::Tracer& trace, const Pin& pin,
                        const char* what) {
    SCOPED_TRACE(what);
    EXPECT_EQ(m.cold_starts, pin.cold);
    EXPECT_EQ(m.warm_starts, pin.warm);
    EXPECT_EQ(m.kills, pin.kills);
    EXPECT_EQ(m.memory_loaded_bytes, pin.loaded_bytes);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(m.loading_time_s),
              std::bit_cast<std::uint64_t>(pin.loading_time_s));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(m.flash_energy_nj),
              std::bit_cast<std::uint64_t>(pin.flash_energy_nj));
    using T = android::TraceEventType;
    EXPECT_EQ(trace.count(T::kColdStart), pin.cold);
    EXPECT_EQ(trace.count(T::kWarmStart), pin.warm);
    EXPECT_EQ(trace.count(T::kKill), pin.kills);
    EXPECT_EQ(trace.count(T::kForeground), pin.cold + pin.warm);
    EXPECT_EQ(trace.count(T::kEmotionChange), pin.emotion_changes);
    EXPECT_EQ(trace.events().size(), pin.events);
  };
  struct Case {
    unsigned monkey_seed;
    Pin baseline, proposed;
  };
  const core::ManagerExperimentConfig defaults;
  const Case cases[] = {
      {defaults.monkey.seed,
       {25, 58, 16, 8837438483ull, 0x1.678257719bf1bp+4, 0x1.d061bdbdd8p+28,
        0, 182},
       {20, 63, 10, 6567930650ull, 0x1.109dfb8abb92p+4, 0x1.56e50a3cb8p+28,
        2, 178}},
      {5,
       {25, 67, 15, 8270141177ull, 0x1.4be8c0533bc3p+4, 0x1.a503d0dp+28,
        0, 199},
       {22, 70, 12, 6726383730ull, 0x1.13db981a8e116p+4, 0x1.520d1667b8p+28,
        2, 198}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.monkey_seed);
    core::ManagerExperimentConfig cfg;
    cfg.monkey.seed = c.monkey_seed;
    const auto res = core::run_manager_experiment(cfg);
    check(res.baseline, res.baseline_trace, c.baseline, "baseline");
    check(res.proposed, res.proposed_trace, c.proposed, "proposed");
  }
}

TEST(ManagerExperiment, TracesRecordEmotionChange) {
  core::ManagerExperimentConfig cfg;
  const auto res = core::run_manager_experiment(cfg);
  EXPECT_GE(res.proposed_trace.count(android::TraceEventType::kEmotionChange),
            1u);
}

// ----------------------------------------------------------------- controller

TEST(Controller, RoutesEmotionToVideoModeAndAppPolicy) {
  core::AppAffectTable table;
  table.observe(affect::Emotion::kDistracted, 1);
  core::EmotionalKillPolicy app_policy(table);

  affect::StreamConfig sc;
  sc.vote_window = 1;
  sc.min_dwell_s = 0.0;
  core::SystemController ctrl(sc, adaptive::AffectVideoPolicy{}, &app_policy);

  const auto ev = ctrl.on_classification(1.0, affect::Emotion::kDistracted);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->emotion, affect::Emotion::kDistracted);
  EXPECT_EQ(ev->video_mode, adaptive::DecoderMode::kCombined);
  EXPECT_EQ(app_policy.emotion(), affect::Emotion::kDistracted);
  EXPECT_EQ(ctrl.current_video_mode(), adaptive::DecoderMode::kCombined);
}

TEST(Controller, HysteresisLimitsModeChanges) {
  affect::StreamConfig sc;
  sc.vote_window = 1;
  sc.min_dwell_s = 30.0;
  core::SystemController ctrl(sc, adaptive::AffectVideoPolicy{});
  ctrl.on_classification(0.0, affect::Emotion::kTense);
  // Rapid flip-flopping within the dwell window is ignored.
  for (int i = 1; i < 10; ++i) {
    const auto e = i % 2 ? affect::Emotion::kRelaxed : affect::Emotion::kTense;
    ctrl.on_classification(static_cast<double>(i), e);
  }
  EXPECT_EQ(ctrl.mode_changes(), 1u);
  EXPECT_EQ(ctrl.current_emotion(), affect::Emotion::kTense);
}

TEST(Controller, ConfidenceGateDropsGuesses) {
  affect::StreamConfig sc;
  sc.vote_window = 1;
  sc.min_dwell_s = 0.0;
  core::SystemController ctrl(sc, adaptive::AffectVideoPolicy{});
  ctrl.set_min_confidence(0.6f);
  // Low-confidence labels never reach the stream.
  EXPECT_FALSE(
      ctrl.on_classification(0.0, affect::Emotion::kAngry, 0.3f).has_value());
  EXPECT_FALSE(
      ctrl.on_classification(1.0, affect::Emotion::kAngry, 0.59f).has_value());
  EXPECT_EQ(ctrl.gated_count(), 2u);
  EXPECT_EQ(ctrl.current_emotion(), affect::Emotion::kNeutral);
  // A confident label acts normally.
  EXPECT_TRUE(
      ctrl.on_classification(2.0, affect::Emotion::kAngry, 0.9f).has_value());
  EXPECT_EQ(ctrl.current_emotion(), affect::Emotion::kAngry);
}

TEST(Controller, ObserversNotified) {
  affect::StreamConfig sc;
  sc.vote_window = 1;
  sc.min_dwell_s = 0.0;
  core::SystemController ctrl(sc, adaptive::AffectVideoPolicy{});
  int notifications = 0;
  ctrl.subscribe([&](const core::ControllerEvent&) { ++notifications; });
  ctrl.on_classification(0.0, affect::Emotion::kHappy);
  ctrl.on_classification(1.0, affect::Emotion::kHappy);  // no change
  ctrl.on_classification(2.0, affect::Emotion::kSad);
  EXPECT_EQ(notifications, 2);
}
