// Event-driven serving tests: two-run replay identity for a lossy
// fleet, thread-count invariance of a mixed fleet, duty-cycle
// transparency on the timer wheel, and the zero-steady-state-allocation
// pin for the pooled serve path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include "affect/speech_synth.hpp"
#include "android/catalog.hpp"
#include "android/personality.hpp"
#include "core/affect_table.hpp"
#include "core/thread_pool.hpp"
#include "nn/model.hpp"
#include "obs/alloc_hooks.hpp"
#include "serve/server.hpp"
#include "simulcast/encoder.hpp"

namespace affect = affectsys::affect;
namespace android = affectsys::android;
namespace conf = affectsys::conf;
namespace core = affectsys::core;
namespace nn = affectsys::nn;
namespace obs = affectsys::obs;
namespace serve = affectsys::serve;

namespace {

/// Shared across every test in this file: one classifier and one
/// workload, both immutable after construction.
struct ShardWorld {
  serve::SharedWorkload workload;
  affect::AffectClassifier classifier;
  std::vector<android::App> catalog;
  core::AppAffectTable table;

  ShardWorld()
      : workload(serve::WorkloadConfig{}),
        classifier([] {
          affect::CorpusProfile prof;
          prof.name = "serve-sharded";
          prof.num_speakers = 4;
          prof.emotions = {affect::Emotion::kAngry, affect::Emotion::kCalm};
          prof.utterances_per_speaker_emotion = 6;
          prof.utterance_seconds = 1.0;
          prof.speaker_spread = 0.1;
          nn::TrainConfig tc;
          tc.epochs = 8;
          tc.batch_size = 8;
          tc.learning_rate = 2e-3f;
          return affect::train_affect_classifier(nn::ModelKind::kMlp, prof,
                                                 tc);
        }()),
        catalog(android::build_catalog(android::EmulatorSpec{})) {
    for (const auto e : {affect::Emotion::kAngry, affect::Emotion::kCalm}) {
      table.learn_from_profile(e, android::profile_for_emotion(e), catalog);
    }
  }

  serve::SessionEnv env(bool with_apps = true) {
    serve::SessionEnv env;
    env.workload = &workload;
    env.classifier = &classifier;
    if (with_apps) {
      env.app_table = &table;
      env.catalog = &catalog;
    }
    return env;
  }
};

ShardWorld& world() {
  static ShardWorld w;
  return w;
}

bool windows_bitwise_equal(const std::vector<serve::WindowRecord>& a,
                           const std::vector<serve::WindowRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].seq != b[i].seq || a[i].t_end != b[i].t_end ||
        a[i].emotion != b[i].emotion) {
      return false;
    }
    if (std::memcmp(&a[i].confidence, &b[i].confidence, sizeof(float)) != 0) {
      return false;
    }
    if (a[i].probabilities.size() != b[i].probabilities.size()) return false;
    if (!a[i].probabilities.empty() &&
        std::memcmp(a[i].probabilities.data(), b[i].probabilities.data(),
                    a[i].probabilities.size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

/// Full-report byte identity.
testing::AssertionResult reports_identical(const serve::SessionReport& a,
                                           const serve::SessionReport& b) {
  if (!windows_bitwise_equal(a.windows, b.windows)) {
    return testing::AssertionFailure() << "window records differ";
  }
  if (a.stable_trace != b.stable_trace) {
    return testing::AssertionFailure() << "stable traces differ";
  }
  if (a.decode_digest != b.decode_digest) {
    return testing::AssertionFailure() << "decode digests differ";
  }
  // All-std::uint64_t aggregates: memcmp is exact.
  if (std::memcmp(&a.stats, &b.stats, sizeof(a.stats)) != 0) {
    return testing::AssertionFailure() << "session stats differ";
  }
  if (std::memcmp(&a.realtime, &b.realtime, sizeof(a.realtime)) != 0) {
    return testing::AssertionFailure() << "realtime stats differ";
  }
  if (std::memcmp(&a.apps, &b.apps, sizeof(a.apps)) != 0) {
    return testing::AssertionFailure() << "app metrics differ";
  }
  if (std::memcmp(&a.transport, &b.transport, sizeof(a.transport)) != 0) {
    return testing::AssertionFailure() << "transport stats differ";
  }
  return testing::AssertionSuccess();
}

}  // namespace

// ------------------------------------------------------- replay identity

// A fleet with a 64-row batcher under transport loss plus server-level
// batcher faults replays exactly: run twice, byte-compare everything.
TEST(ShardScheduling, ShardedLossyReplayIdentity) {
  const auto run = [] {
    serve::ServerConfig cfg;
    cfg.batcher.max_batch = 64;
    cfg.fault.rate = 0.05;  // server plan: batcher fallback site
    cfg.fault.seed = 99;
    cfg.session.transport.enabled = true;
    cfg.session.transport.fec.enabled = true;
    cfg.session.fault.rate = 0.05;  // per-session plan, id-mixed seed
    cfg.session.fault.seed = 17;
    serve::SessionManager server(cfg, world().env());
    std::vector<serve::SessionId> ids;
    for (int i = 0; i < 6; ++i) ids.push_back(server.create_session());
    for (int i = 0; i < 120; ++i) server.tick();
    server.drain();
    struct Outcome {
      std::vector<serve::SessionReport> reports;
      std::vector<affectsys::fault::FaultCounts> faults;
      serve::ServerStats stats;
    } out;
    for (const auto id : ids) {
      out.reports.push_back(server.report(id));
      out.faults.push_back(server.session(id).fault_counts());
    }
    out.stats = server.stats();
    return out;
  };

  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.reports.size(), b.reports.size());
  std::uint64_t total_lost = 0;
  std::uint64_t total_faults = 0;
  for (std::size_t i = 0; i < a.reports.size(); ++i) {
    EXPECT_TRUE(reports_identical(a.reports[i], b.reports[i]))
        << "session " << i;
    EXPECT_EQ(a.faults[i].total, b.faults[i].total) << "session " << i;
    EXPECT_EQ(a.faults[i].by_kind, b.faults[i].by_kind) << "session " << i;
    total_lost += a.reports[i].transport.packets_lost;
    total_faults += a.faults[i].total;
  }
  // The plans actually fired — this is a lossy replay, not a clean one.
  EXPECT_GT(total_lost, 0u);
  EXPECT_GT(total_faults, 0u);
  EXPECT_EQ(std::memcmp(&a.stats, &b.stats, sizeof(a.stats)), 0);
}

// ------------------------------------------------ thread-count invariance

namespace {

struct MixedFleetOutcome {
  std::vector<serve::SessionReport> reports;
  std::vector<affectsys::fault::FaultCounts> faults;
  conf::RoomReport room;
  serve::ServerStats stats;
};

/// One server, three kinds of session: two in-process, two over a
/// lossy transport link, and a 4-member room of simulcast speakers over
/// lossy links.
MixedFleetOutcome run_mixed_fleet() {
  static const serve::SharedWorkload workload([] {
    serve::WorkloadConfig wc;
    wc.simulcast = affectsys::simulcast::default_simulcast_config();
    return wc;
  }());
  serve::SessionEnv env = world().env();
  env.workload = &workload;
  serve::ServerConfig cfg;
  serve::SessionManager server(cfg, env);

  serve::SessionConfig lossy = cfg.session;
  lossy.transport.enabled = true;
  lossy.transport.fec.enabled = true;
  lossy.fault.rate = 0.05;
  lossy.fault.seed = 17;
  lossy.fault.kinds = affectsys::fault::kNetKinds;
  serve::SessionConfig speaker = lossy;
  speaker.simulcast.enabled = true;
  speaker.transport.layers = static_cast<std::uint8_t>(
      workload.simulcast_clip()->layer_count());

  std::vector<serve::SessionId> ids;
  for (int i = 0; i < 2; ++i) ids.push_back(server.create_session());
  for (unsigned seed : {21u, 22u}) {
    lossy.seed = seed;
    ids.push_back(server.create_session(lossy));
  }
  const conf::RoomId room = server.create_room();
  for (unsigned seed : {31u, 32u, 33u, 34u}) {
    speaker.seed = seed;
    ids.push_back(server.create_session(speaker, room));
  }
  for (int i = 0; i < 80; ++i) server.tick();
  server.drain();

  MixedFleetOutcome out;
  for (const auto id : ids) {
    out.reports.push_back(server.report(id));
    out.faults.push_back(server.session(id).fault_counts());
  }
  out.room = server.room_report(room);
  out.stats = server.stats();
  return out;
}

}  // namespace

// Stages A and C run on the global pool; its size must never change a
// byte of output.  Same run at 0 (inline), 1, the default and 2x the
// host's cores.
TEST(ServeThreads, PoolSizeNeverChangesReports) {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<MixedFleetOutcome> runs;
  for (const std::size_t threads :
       {std::size_t{0}, std::size_t{1}, core::default_thread_count(), 2 * hw}) {
    core::set_global_threads(threads);
    runs.push_back(run_mixed_fleet());
  }
  core::set_global_threads(core::default_thread_count());

  const MixedFleetOutcome& base = runs.front();
  ASSERT_EQ(base.reports.size(), 8u);
  // The run is non-trivial: video decoded, packets lost, speakers moved.
  EXPECT_GT(base.reports[0].stats.frames_decoded, 100u);
  EXPECT_GT(base.reports[2].transport.packets_lost, 0u);
  EXPECT_GT(base.room.speaker_trace.size(), 1u);
  for (std::size_t r = 1; r < runs.size(); ++r) {
    const MixedFleetOutcome& got = runs[r];
    ASSERT_EQ(got.reports.size(), base.reports.size());
    for (std::size_t i = 0; i < base.reports.size(); ++i) {
      EXPECT_TRUE(reports_identical(got.reports[i], base.reports[i]))
          << "run " << r << " session " << i;
      EXPECT_EQ(got.reports[i].layer_trace, base.reports[i].layer_trace)
          << "run " << r << " session " << i;
      EXPECT_EQ(got.faults[i].by_kind, base.faults[i].by_kind)
          << "run " << r << " session " << i;
    }
    EXPECT_EQ(got.room, base.room) << "run " << r;
    EXPECT_EQ(std::memcmp(&got.stats, &base.stats, sizeof(got.stats)), 0)
        << "run " << r;
  }
}

// --------------------------------------------------- duty-cycle wheel

// A duty-cycled session on the wheel (1 active tick, 7 idle) run for
// 160 server ticks produces *exactly* the output of an always-on
// session run for 20 ticks: local-tick timing makes the idle phases
// invisible to media behaviour.
TEST(DutyCycle, IdleTicksAreTransparentToSessionOutput) {
  serve::SessionConfig scfg;
  scfg.seed = 11;

  // Baseline: always-on, 20 ticks.  Results apply the tick their
  // window is staged, so none spans a sleep.
  serve::SessionManager base(serve::ServerConfig{}, world().env());
  const auto base_id = base.create_session(scfg);
  for (int i = 0; i < 20; ++i) base.tick();
  base.drain();
  const auto base_report = base.report(base_id);
  ASSERT_EQ(base_report.stats.ticks, 20u);
  ASSERT_GT(base_report.windows.size(), 0u);

  // Duty-cycled: wakes every 8th server tick.
  serve::SessionConfig duty = scfg;
  duty.duty_active_ticks = 1;
  duty.duty_idle_ticks = 7;
  serve::SessionManager server(serve::ServerConfig{}, world().env());
  const auto id = server.create_session(duty);
  for (int i = 0; i < 160; ++i) server.tick();
  server.drain();
  const auto duty_report = server.report(id);

  // Ran 20 times in 160 server ticks (8-tick period)...
  EXPECT_EQ(duty_report.stats.ticks, 20u);
  EXPECT_EQ(server.stats().session_runs, 20u);
  // ...and those 20 runs are the always-on run, byte for byte.
  EXPECT_TRUE(reports_identical(duty_report, base_report));
}

// ------------------------------------------- zero steady-state allocs

// The pooled serve path (staging ring + buffer pool + feature workspace +
// batcher scratch + wheel slots + decoder recycling) must stop touching
// the allocator once warm.  Only meaningful when the global new/delete
// hooks are compiled in (AFFECTSYS_METRICS).
TEST(ServeAllocations, SteadyStateIsAllocationFree) {
  if (!obs::alloc_tracking_enabled()) {
    GTEST_SKIP() << "allocation hooks not compiled in";
  }
  // Inline execution: no thread-pool task queue in the measurement.
  core::set_global_threads(0);

  serve::ServerConfig cfg;
  cfg.session.record_trace = false;  // no growing replay log
  // No app manager (its kill policy logs) — audio + video only.
  serve::SessionManager server(
      cfg, world().env(/*with_apps=*/false));
  for (int i = 0; i < 4; ++i) server.create_session();

  // Warm: several clip wraps, window cadence established, every ring,
  // pool and scratch vector at its high-water mark.
  for (int i = 0; i < 150; ++i) server.tick();

  const std::uint64_t before = obs::alloc_count();
  for (int i = 0; i < 100; ++i) server.tick();
  const std::uint64_t after = obs::alloc_count();

  core::set_global_threads(core::default_thread_count());
  EXPECT_EQ(after - before, 0u)
      << "steady-state serve ticks allocated " << (after - before)
      << " times";
}

// ------------------------------------------------ per-session memory

// What one fleet session asks of the heap from admission through its
// first active period, in perfbench's idle_fleet shape: duty-cycled 8
// ticks on and 248 off, no replay log, app manager on.  A warm-up
// session's active period first sizes the server's rings and this
// thread's scratch, which every later session shares.  The bound sits
// between two readings: 187,202 bytes with a window-plus-chunk capture
// (17,600 samples) and a per-session audio chunk, 161,514 with a
// one-window capture and the chunk in per-thread scratch.  The
// 128,000-byte capture is most of what remains.
TEST(ServeAllocations, IdleFleetSessionHeapStaysUnderBound) {
  if (!obs::alloc_tracking_enabled()) {
    GTEST_SKIP() << "allocation hooks not compiled in";
  }
  core::set_global_threads(0);
  serve::ServerConfig cfg;
  cfg.session.duty_active_ticks = 8;
  cfg.session.duty_idle_ticks = 248;
  cfg.session.record_trace = false;
  serve::SessionManager server(cfg, world().env());
  server.create_session();
  for (int i = 0; i < 8; ++i) server.tick();

  const std::uint64_t before = obs::alloc_bytes();
  const serve::SessionId id = server.create_session();
  for (int i = 0; i < 8; ++i) server.tick();
  const std::uint64_t bytes = obs::alloc_bytes() - before;
  core::set_global_threads(core::default_thread_count());

  EXPECT_EQ(server.report(id).stats.ticks, 8u);
  EXPECT_LT(bytes, 174000u) << "a fleet session allocated " << bytes
                            << " bytes through its first active period";
}
