// Tests for the smartphone simulator substrate: catalog, flash model,
// process manager semantics, kill policies, personality profiles, monkey
// generator and tracing.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "android/catalog.hpp"
#include "android/flash.hpp"
#include "android/monkey.hpp"
#include "android/personality.hpp"
#include "android/policy.hpp"
#include "android/process.hpp"
#include "android/trace.hpp"

namespace android = affectsys::android;
namespace affect = affectsys::affect;

// ------------------------------------------------------------------ catalog

TEST(Catalog, Has44UniqueApps) {
  const auto catalog = android::build_catalog(android::EmulatorSpec{});
  EXPECT_EQ(catalog.size(), 44u);
  std::set<android::AppId> ids;
  for (const auto& a : catalog) ids.insert(a.id);
  EXPECT_EQ(ids.size(), 44u);
}

TEST(Catalog, SizesArePlausible) {
  const auto catalog = android::build_catalog(android::EmulatorSpec{});
  for (const auto& a : catalog) {
    EXPECT_GT(a.image_bytes, 5ull * 1024 * 1024) << a.name;
    EXPECT_LT(a.image_bytes, 500ull * 1024 * 1024) << a.name;
    EXPECT_GT(a.memory_bytes, a.image_bytes / 10) << a.name;
    EXPECT_GT(a.init_time_s, 0.0) << a.name;
  }
}

TEST(Catalog, DeterministicForSameSeed) {
  const auto a = android::build_catalog(android::EmulatorSpec{}, 7);
  const auto b = android::build_catalog(android::EmulatorSpec{}, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].image_bytes, b[i].image_bytes);
  }
}

TEST(Catalog, ProtectedAppsExist) {
  const auto catalog = android::build_catalog(android::EmulatorSpec{});
  std::size_t protected_count = 0;
  for (const auto& a : catalog) protected_count += a.protected_from_kill;
  EXPECT_GE(protected_count, 5u);   // messaging + calling + settings + system
  EXPECT_LE(protected_count, 15u);  // but most apps are killable
}

TEST(Catalog, CategoryLookup) {
  const auto catalog = android::build_catalog(android::EmulatorSpec{});
  const auto msgs =
      android::apps_in_category(catalog, android::AppCategory::kMessaging);
  EXPECT_EQ(msgs.size(), 3u);
}

// -------------------------------------------------------------------- flash

TEST(Flash, TimeScalesWithBytes) {
  android::FlashStorage flash;
  const auto small = flash.read(10 * 1024 * 1024);
  const auto large = flash.read(100 * 1024 * 1024);
  EXPECT_GT(large.time_s, small.time_s);
  EXPECT_NEAR(large.energy_nj / small.energy_nj, 10.0, 1e-6);
}

TEST(Flash, TotalsAccumulate) {
  android::FlashStorage flash;
  flash.read_and_account(1024);
  flash.read_and_account(2048);
  EXPECT_EQ(flash.totals().bytes, 3072u);
  flash.reset_totals();
  EXPECT_EQ(flash.totals().bytes, 0u);
}

// ----------------------------------------------------------------- policies

TEST(Policies, FifoPicksOldestLoad) {
  android::FifoKillPolicy fifo;
  std::vector<android::VictimCandidate> c = {
      {1, 10.0, 50.0, 100, 3}, {2, 5.0, 60.0, 100, 1}, {3, 20.0, 40.0, 100, 9}};
  EXPECT_EQ(fifo.select_victim(c), 2u);
}

TEST(Policies, LruPicksLeastRecentlyUsed) {
  android::LruKillPolicy lru;
  std::vector<android::VictimCandidate> c = {
      {1, 10.0, 50.0, 100, 3}, {2, 5.0, 60.0, 100, 1}, {3, 20.0, 40.0, 100, 9}};
  EXPECT_EQ(lru.select_victim(c), 3u);
}

TEST(Policies, FrequencyPicksLeastLaunched) {
  android::FrequencyKillPolicy freq;
  std::vector<android::VictimCandidate> c = {
      {1, 10.0, 50.0, 100, 3}, {2, 5.0, 60.0, 100, 1}, {3, 20.0, 40.0, 100, 9}};
  EXPECT_EQ(freq.select_victim(c), 2u);
}

// ----------------------------------------------------------- process manager

namespace {

android::ProcessManagerConfig tight_config() {
  android::ProcessManagerConfig cfg;
  cfg.process_limit = 8;
  cfg.ram_bytes = 3ull * 1024 * 1024 * 1024;
  cfg.reserved_bytes = 1ull * 1024 * 1024 * 1024;
  return cfg;
}

}  // namespace

TEST(ProcessManager, ColdThenWarmStart) {
  const auto catalog = android::build_catalog(android::EmulatorSpec{});
  android::FifoKillPolicy fifo;
  android::ProcessManager pm(catalog, tight_config(), fifo);
  const android::AppId app = catalog[5].id;

  const auto cost1 = pm.launch(app, 1.0);
  EXPECT_GT(cost1.bytes, 0u);
  EXPECT_GT(cost1.time_s, 0.0);
  EXPECT_EQ(pm.metrics().cold_starts, 1u);

  const auto cost2 = pm.launch(app, 2.0);
  EXPECT_EQ(cost2.bytes, 0u);
  EXPECT_EQ(pm.metrics().warm_starts, 1u);
  EXPECT_EQ(pm.foreground(), app);
}

TEST(ProcessManager, EnforcesProcessLimit) {
  const auto catalog = android::build_catalog(android::EmulatorSpec{});
  android::FifoKillPolicy fifo;
  android::ProcessManager pm(catalog, tight_config(), fifo);
  double t = 0.0;
  for (const auto& a : catalog) {
    pm.launch(a.id, t += 1.0);
    EXPECT_TRUE(pm.invariants_hold()) << "after launching " << a.name;
  }
  EXPECT_GT(pm.metrics().kills, 0u);
  EXPECT_LE(pm.killable_count(), 9u);  // limit 8 + foreground grace
}

TEST(ProcessManager, NeverKillsProtectedOrForeground) {
  const auto catalog = android::build_catalog(android::EmulatorSpec{});
  android::FifoKillPolicy fifo;
  android::Tracer tracer;
  android::ProcessManager pm(catalog, tight_config(), fifo, &tracer);
  double t = 0.0;
  for (const auto& a : catalog) pm.launch(a.id, t += 1.0);
  // Every killed app must be unprotected.
  for (const auto& ev : tracer.events()) {
    if (ev.type != android::TraceEventType::kKill) continue;
    EXPECT_FALSE(pm.app_info(ev.app).protected_from_kill)
        << "killed protected app " << ev.app;
  }
  // Protected processes are still resident at the end.
  for (const auto& a : catalog) {
    if (a.protected_from_kill) EXPECT_TRUE(pm.is_running(a.id)) << a.name;
  }
}

TEST(ProcessManager, RamBudgetRespected) {
  const auto catalog = android::build_catalog(android::EmulatorSpec{});
  android::LruKillPolicy lru;
  auto cfg = tight_config();
  android::ProcessManager pm(catalog, cfg, lru);
  double t = 0.0;
  for (int round = 0; round < 3; ++round) {
    for (const auto& a : catalog) {
      pm.launch(a.id, t += 1.0);
      EXPECT_LE(pm.used_ram(), cfg.ram_bytes + (1ull << 30));
    }
  }
}

TEST(ProcessManager, MetricsAddUp) {
  const auto catalog = android::build_catalog(android::EmulatorSpec{});
  android::FifoKillPolicy fifo;
  android::ProcessManager pm(catalog, tight_config(), fifo);
  double t = 0.0;
  std::size_t launches = 0;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < 10; ++i) {
      pm.launch(catalog[i].id, t += 1.0);
      ++launches;
    }
  }
  EXPECT_EQ(pm.metrics().cold_starts + pm.metrics().warm_starts, launches);
  EXPECT_GT(pm.metrics().memory_loaded_bytes, 0u);
  EXPECT_GT(pm.metrics().loading_time_s, 0.0);
}

TEST(ProcessManager, UnknownAppThrows) {
  const auto catalog = android::build_catalog(android::EmulatorSpec{});
  android::FifoKillPolicy fifo;
  android::ProcessManager pm(catalog, tight_config(), fifo);
  EXPECT_THROW(pm.launch(9999, 0.0), std::invalid_argument);
}

// -------------------------------------------------------------- personality

TEST(Personality, FourSubjectsWithPaperTraits) {
  const auto subjects = android::paper_subjects();
  ASSERT_EQ(subjects.size(), 4u);
  EXPECT_GT(subjects[0].scores.agreeableness, 0.8);  // subject 1
  EXPECT_EQ(subjects[2].emulated_emotion, affect::Emotion::kExcited);
  EXPECT_EQ(subjects[3].emulated_emotion, affect::Emotion::kCalm);
}

TEST(Personality, WeightsNormalized) {
  for (const auto& s : android::paper_subjects()) {
    double sum = 0.0;
    for (const auto& [c, w] : s.category_weights) {
      EXPECT_GE(w, 0.0);
      sum += w;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9) << "subject " << s.subject_id;
  }
}

TEST(Personality, MessagingBrowsingDominates) {
  // Paper: "messaging and internet browsing dominate the daily app usage
  // with about 60% to 70% in total".
  for (const auto& s : android::paper_subjects()) {
    const double share = android::messaging_browsing_share(s);
    EXPECT_GE(share, 0.55) << "subject " << s.subject_id;
    EXPECT_LE(share, 0.75) << "subject " << s.subject_id;
  }
}

TEST(Personality, EmotionLookupCoversAllEmotions) {
  for (std::size_t i = 0; i < affect::kNumEmotions; ++i) {
    const auto& p =
        android::profile_for_emotion(static_cast<affect::Emotion>(i));
    EXPECT_GE(p.subject_id, 1);
    EXPECT_LE(p.subject_id, 4);
  }
  EXPECT_EQ(android::profile_for_emotion(affect::Emotion::kExcited).subject_id,
            3);
  EXPECT_EQ(android::profile_for_emotion(affect::Emotion::kCalm).subject_id,
            4);
}

// ------------------------------------------------------------------- monkey

TEST(Monkey, HistogramTracksProfileWeights) {
  const auto catalog = android::build_catalog(android::EmulatorSpec{});
  android::MonkeyScript monkey(catalog, {12.0, 5});
  const auto& s3 = android::subject(3);
  const auto hist = monkey.sample_category_histogram(s3, 4000);
  const double msg =
      static_cast<double>(hist.at(android::AppCategory::kMessaging)) / 4000.0;
  const auto expected = s3.category_weights.at(android::AppCategory::kMessaging);
  EXPECT_NEAR(msg, expected, 0.05);
  // Subject 3's signature categories appear.
  EXPECT_GT(hist.at(android::AppCategory::kCalling), 0u);
  EXPECT_GT(hist.at(android::AppCategory::kSharedTransport), 0u);
}

TEST(Monkey, EventsCoverTimelineInOrder) {
  const auto catalog = android::build_catalog(android::EmulatorSpec{});
  android::MonkeyScript monkey(catalog, {10.0, 1});
  affect::EmotionTimeline tl;
  tl.segments = {{0.0, 300.0, affect::Emotion::kExcited},
                 {300.0, 600.0, affect::Emotion::kCalm}};
  const auto events = monkey.generate(tl);
  ASSERT_GT(events.size(), 20u);
  double prev = -1.0;
  for (const auto& ev : events) {
    EXPECT_GT(ev.time_s, prev);
    prev = ev.time_s;
    EXPECT_LT(ev.time_s, 600.0);
    EXPECT_EQ(ev.emotion, tl.at(ev.time_s));
  }
}

TEST(Monkey, DeterministicForSeed) {
  const auto catalog = android::build_catalog(android::EmulatorSpec{});
  affect::EmotionTimeline tl;
  tl.segments = {{0.0, 200.0, affect::Emotion::kExcited}};
  android::MonkeyScript m1(catalog, {10.0, 77});
  android::MonkeyScript m2(catalog, {10.0, 77});
  const auto e1 = m1.generate(tl);
  const auto e2 = m2.generate(tl);
  ASSERT_EQ(e1.size(), e2.size());
  for (std::size_t i = 0; i < e1.size(); ++i) {
    EXPECT_EQ(e1[i].app, e2[i].app);
  }
}

// -------------------------------------------------------------------- trace

TEST(Trace, SpansReconstructLifetimes) {
  android::Tracer tracer;
  tracer.record(1.0, android::TraceEventType::kColdStart, 10);
  tracer.record(5.0, android::TraceEventType::kKill, 10, "pressure");
  tracer.record(7.0, android::TraceEventType::kColdStart, 10);
  tracer.record(2.0, android::TraceEventType::kColdStart, 11);
  const auto spans = tracer.process_spans(10.0);
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].app, 10u);
  EXPECT_EQ(spans[0].start_s, 1.0);
  EXPECT_EQ(spans[0].end_s, 5.0);
  EXPECT_EQ(spans[1].start_s, 7.0);
  EXPECT_EQ(spans[1].end_s, 10.0);  // still alive at trace end
  EXPECT_EQ(spans[2].app, 11u);
}

TEST(Trace, TimelineRenderShowsAliveAndDead) {
  const auto catalog = android::build_catalog(android::EmulatorSpec{});
  android::Tracer tracer;
  tracer.record(0.0, android::TraceEventType::kColdStart, catalog[0].id);
  tracer.record(50.0, android::TraceEventType::kKill, catalog[0].id);
  const auto s = tracer.render_timeline(catalog, 100.0, 40);
  EXPECT_NE(s.find('='), std::string::npos);
  EXPECT_NE(s.find('.'), std::string::npos);
  EXPECT_NE(s.find(catalog[0].name), std::string::npos);
}

TEST(Trace, CountByType) {
  android::Tracer tracer;
  tracer.record(0.0, android::TraceEventType::kColdStart, 1);
  tracer.record(1.0, android::TraceEventType::kKill, 1);
  tracer.record(2.0, android::TraceEventType::kKill, 2);
  EXPECT_EQ(tracer.count(android::TraceEventType::kKill), 2u);
  EXPECT_EQ(tracer.count(android::TraceEventType::kWarmStart), 0u);
}

TEST(TraceJson, WellFormedAndComplete) {
  const auto catalog = android::build_catalog(android::EmulatorSpec{});
  android::Tracer tracer;
  tracer.record(1.5, android::TraceEventType::kColdStart, catalog[0].id);
  tracer.record(2.0, android::TraceEventType::kKill, catalog[0].id,
                "pressure \"quoted\"");
  tracer.record(3.0, android::TraceEventType::kEmotionChange, 0, "calm");
  const std::string json = tracer.to_json(catalog);
  // Structure: array with one object per event.
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"ts\": 1500000"), std::string::npos);
  EXPECT_NE(json.find("cold_start"), std::string::npos);
  EXPECT_NE(json.find("kill"), std::string::npos);
  EXPECT_NE(json.find("emotion_change"), std::string::npos);
  EXPECT_NE(json.find(catalog[0].name), std::string::npos);
  // Quotes in details are escaped.
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  // Balanced braces (rough well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}
