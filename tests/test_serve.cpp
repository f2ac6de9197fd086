// Session serving layer tests: lifecycle, admission control, shedding
// determinism, and the two byte-identity contracts (batched inference
// vs. per-window forwards; served single session vs. the standalone
// pipeline).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "affect/speech_synth.hpp"
#include "android/catalog.hpp"
#include "android/personality.hpp"
#include "core/affect_table.hpp"
#include "fault/plan.hpp"
#include "nn/model.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"

namespace affect = affectsys::affect;
namespace android = affectsys::android;
namespace core = affectsys::core;
namespace nn = affectsys::nn;
namespace serve = affectsys::serve;

namespace {

/// Shared across every test: workload synthesis + classifier training
/// are the expensive parts, and both are immutable (the classifier's
/// scratch is reused, but all access in here is single-threaded or
/// serialized through the batcher).
struct ServeWorld {
  serve::SharedWorkload workload;
  affect::AffectClassifier classifier;
  std::vector<android::App> catalog;
  core::AppAffectTable table;

  ServeWorld()
      : workload(serve::WorkloadConfig{}),
        classifier([] {
          affect::CorpusProfile prof;
          prof.name = "serve";
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

  serve::SessionEnv env() {
    serve::SessionEnv env;
    env.workload = &workload;
    env.classifier = &classifier;
    env.app_table = &table;
    env.catalog = &catalog;
    return env;
  }
};

ServeWorld& world() {
  static ServeWorld w;
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

}  // namespace

// ------------------------------------------------------------- lifecycle

TEST(SessionLifecycle, CreateTickCloseAndReuseSlot) {
  serve::ServerConfig cfg;
  cfg.max_sessions = 2;
  serve::SessionManager server(cfg, world().env());

  const auto a = server.create_session();
  const auto b = server.create_session();
  EXPECT_EQ(server.open_sessions(), 2u);
  for (int i = 0; i < 20; ++i) server.tick();
  EXPECT_EQ(server.session(a).stats().ticks, 20u);
  EXPECT_EQ(server.session(b).stats().ticks, 20u);

  server.close_session(a);
  EXPECT_EQ(server.open_sessions(), 1u);
  EXPECT_FALSE(server.has_session(a));
  EXPECT_THROW(server.report(a), std::out_of_range);
  EXPECT_THROW(server.close_session(a), std::out_of_range);

  // The freed capacity slot is reusable, but ids are never recycled.
  const auto c = server.create_session();
  EXPECT_NE(c, a);
  EXPECT_NE(c, b);
  EXPECT_GT(c, b);
  for (int i = 0; i < 5; ++i) server.tick();
  // The late joiner ticks from its admission, not the server's epoch.
  EXPECT_EQ(server.session(c).stats().ticks, 5u);
  EXPECT_EQ(server.session(b).stats().ticks, 25u);
  EXPECT_EQ(server.stats().sessions_created, 3u);
  EXPECT_EQ(server.stats().sessions_closed, 1u);
}

// Session ids only grow, so a metric series registered per session would
// pile up in the process-wide registry with every admission.  The
// registry keeps aggregates only: once one session has run, 63 more
// sessions on the same seed (so the same code paths, and the same lazily
// registered aggregates) add no series.
TEST(SessionLifecycle, RegistryStaysBoundedUnderSessionChurn) {
  serve::ServerConfig cfg;
  cfg.max_sessions = 1;
  serve::SessionManager server(cfg, world().env());
  const affectsys::obs::Registry& reg = affectsys::obs::Registry::global();
  // 12 ticks: one app launch, and a window classified through the batcher.
  const auto churn = [&] {
    const serve::SessionId id = server.create_session(serve::SessionConfig{});
    for (int i = 0; i < 12; ++i) server.tick();
    EXPECT_GT(server.session(id).stats().results_applied, 0u);
    server.close_session(id);
    return reg.series();
  };
  const std::size_t after_first = churn();
  for (int s = 1; s < 63; ++s) churn();
  EXPECT_EQ(churn(), after_first);
  EXPECT_EQ(server.stats().sessions_closed, 64u);
}

// The registry alone says where a tick's time went: the stage timers
// (due list, the three audio steps, rooms, inference, media and the
// wheel re-arm) add up to serve.tick_ns within 5% on a multi-session
// run.
TEST(SessionLifecycle, StageTimersCoverTheTick) {
#if !(defined(AFFECTSYS_METRICS) && AFFECTSYS_METRICS)
  GTEST_SKIP() << "metrics compiled out";
#else
  affectsys::obs::Registry& reg = affectsys::obs::Registry::global();
  const char* const stages[] = {
      "serve.stage_due_ns",   "serve.stage_ingest_ns",
      "serve.stage_rows_ns",  "serve.stage_finish_ns",
      "serve.stage_rooms_ns", "serve.stage_infer_ns",
      "serve.stage_media_ns", "serve.stage_reschedule_ns"};
  const auto stage_sum = [&] {
    double s = 0.0;
    for (const char* name : stages) s += reg.histogram(name).sum();
    return s;
  };
  const double tick0 = reg.histogram("serve.tick_ns").sum();
  const double stages0 = stage_sum();
  const std::uint64_t rows0 = reg.histogram("serve.stage_rows_ns").count();

  serve::SessionManager server(serve::ServerConfig{}, world().env());
  for (int i = 0; i < 8; ++i) server.create_session();
  constexpr int kTicks = 40;
  for (int i = 0; i < kTicks; ++i) server.tick();

  const double tick = reg.histogram("serve.tick_ns").sum() - tick0;
  const double covered = stage_sum() - stages0;
  EXPECT_EQ(reg.histogram("serve.stage_rows_ns").count() - rows0,
            static_cast<std::uint64_t>(kTicks));
  ASSERT_GT(tick, 0.0);
  EXPECT_LE(covered, tick);
  EXPECT_GE(covered, 0.95 * tick)
      << "stages cover " << 100.0 * covered / tick << "% of the tick";
#endif
}

// Each served window copies the rows it shares with the session's window
// before (affect.feature_rows_reused): 14 of 64 when the two ended one
// 0.5 s stride apart, none otherwise.  (FeatureReuseMatchesExtractInto-
// WindowForWindow in test_realtime pins the bytes.)
TEST(SessionLifecycle, ServedWindowsReuseOverlapRows) {
  affectsys::obs::Registry& reg = affectsys::obs::Registry::global();
  const std::uint64_t rows0 = reg.counter("affect.feature_rows").value();
  const std::uint64_t reused0 =
      reg.counter("affect.feature_rows_reused").value();

  serve::SessionManager server(serve::ServerConfig{}, world().env());
  serve::SessionConfig scfg;
  scfg.seed = 42;
  const auto id = server.create_session(scfg);
  for (int t = 0; t < 120; ++t) server.tick();
  server.drain();
  const auto rep = server.report(id);

  ASSERT_GT(rep.windows.size(), 10u);
  std::uint64_t shared = 0;
  for (std::size_t k = 1; k < rep.windows.size(); ++k) {
    const double gap = rep.windows[k].t_end - rep.windows[k - 1].t_end;
    if (std::abs(gap - 0.5) < 1e-9) shared += 14;
  }
  EXPECT_GT(shared, 0u);
#if defined(AFFECTSYS_METRICS) && AFFECTSYS_METRICS
  EXPECT_EQ(reg.counter("affect.feature_rows").value() - rows0,
            64 * rep.windows.size());
  EXPECT_EQ(reg.counter("affect.feature_rows_reused").value() - reused0,
            shared);
#else
  EXPECT_EQ(reg.counter("affect.feature_rows").value(), rows0);
  EXPECT_EQ(reg.counter("affect.feature_rows_reused").value(), reused0);
#endif
}

TEST(SessionLifecycle, SessionRequiresWorkloadAndClassifier) {
  serve::SessionEnv empty;
  EXPECT_THROW(serve::Session(1, serve::SessionConfig{}, empty, true),
               std::invalid_argument);
}

// ------------------------------------------------------------- admission

TEST(Admission, RejectsWithTypedErrorAtCapacity) {
  serve::ServerConfig cfg;
  cfg.max_sessions = 3;
  serve::SessionManager server(cfg, world().env());
  for (int i = 0; i < 3; ++i) server.create_session();

  try {
    server.create_session();
    FAIL() << "expected AdmissionError";
  } catch (const serve::AdmissionError& e) {
    EXPECT_EQ(e.open_sessions(), 3u);
    EXPECT_EQ(e.limit(), 3u);
    EXPECT_NE(std::string(e.what()).find("capacity"), std::string::npos);
  }
  EXPECT_EQ(server.stats().sessions_rejected, 1u);
  EXPECT_EQ(server.open_sessions(), 3u);

  // Rejection is backpressure, not a wedge: closing makes room again.
  server.close_session(1);
  EXPECT_NO_THROW(server.create_session());
}

// -------------------------------------------------------------- shedding

namespace {

/// Overload recipe: service capacity of 1 window per tick against
/// several talkative sessions, with tight watermarks and a tiny
/// per-session queue so every shedding mechanism engages.
serve::ServerConfig overload_config() {
  serve::ServerConfig cfg;
  cfg.max_sessions = 8;
  cfg.batcher.max_batch = 1;
  cfg.backlog_hi = 4;
  cfg.backlog_lo = 1;
  cfg.session.realtime.max_inflight = 2;
  return cfg;
}

struct OverloadOutcome {
  std::vector<serve::SessionReport> reports;
  serve::ServerStats server;
  serve::BatcherStats batcher;
  int final_level = 0;
};

OverloadOutcome run_overloaded(int ticks) {
  serve::SessionManager server(overload_config(), world().env());
  std::vector<serve::SessionId> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(server.create_session());
  for (int i = 0; i < ticks; ++i) server.tick();
  server.drain();
  OverloadOutcome out;
  for (const auto id : ids) out.reports.push_back(server.report(id));
  out.server = server.stats();
  out.batcher = server.batcher_stats();
  out.final_level = server.degrade_level();
  return out;
}

}  // namespace

TEST(Shedding, OverloadEngagesEveryRungOfTheLadder) {
  const auto out = run_overloaded(300);

  std::uint64_t dropped_windows = 0;
  std::uint64_t dropped_frames = 0;
  std::uint64_t applied = 0;
  for (const auto& rep : out.reports) {
    dropped_windows += rep.realtime.windows_dropped;
    dropped_frames += rep.stats.frames_dropped;
    applied += rep.stats.results_applied;
    // Per-session invariant: every window either got a result or was
    // shed before extraction; nothing vanished.
    EXPECT_EQ(rep.stats.windows_enqueued, rep.stats.results_applied);
  }
  // The degrade ladder climbed (mode forcing, then frame shedding) and
  // the per-session queues shed windows — but classified work still got
  // through.
  EXPECT_GT(out.server.degrade_ticks, 0u);
  EXPECT_EQ(out.server.max_degrade_level, serve::kFrameShedLevel);
  EXPECT_GT(dropped_windows, 0u);
  EXPECT_GT(dropped_frames, 0u);
  EXPECT_GT(applied, 0u);
  EXPECT_EQ(out.server.results_routed, applied);
}

// Level 1 of the degrade ladder in isolation: forcing the level to 1
// turns NAL deletion on even for a session whose affect policy chose a
// quality mode, shrinking decode work without dropping whole frames.
TEST(Shedding, ForcedDeletionLevelDeletesNals) {
  serve::SessionConfig cfg;
  cfg.seed = 9;
  serve::Session session(1, cfg, world().env(), /*inline_inference=*/true);
  for (int t = 0; t < 300; ++t) {
    session.pump_audio(static_cast<std::uint64_t>(t));
    session.tick_media(static_cast<std::uint64_t>(t), /*degrade_level=*/1);
  }
  EXPECT_GT(session.stats().nals_deleted, 0u);
  EXPECT_GT(session.stats().frames_decoded, 0u);
  EXPECT_EQ(session.stats().frames_dropped, 0u);
  const auto m = session.last_effective_mode();
  EXPECT_TRUE(m == affectsys::adaptive::DecoderMode::kDeletion ||
              m == affectsys::adaptive::DecoderMode::kCombined);
}

TEST(Shedding, OverloadedRunsAreDeterministic) {
  const auto a = run_overloaded(200);
  const auto b = run_overloaded(200);
  ASSERT_EQ(a.reports.size(), b.reports.size());
  for (std::size_t i = 0; i < a.reports.size(); ++i) {
    const auto& ra = a.reports[i];
    const auto& rb = b.reports[i];
    EXPECT_TRUE(windows_bitwise_equal(ra.windows, rb.windows)) << "session " << i;
    EXPECT_EQ(ra.stable_trace, rb.stable_trace) << "session " << i;
    EXPECT_EQ(ra.decode_digest, rb.decode_digest) << "session " << i;
    EXPECT_EQ(ra.realtime.windows_dropped, rb.realtime.windows_dropped);
    EXPECT_EQ(ra.stats.frames_dropped, rb.stats.frames_dropped);
    EXPECT_EQ(ra.stats.frames_decoded, rb.stats.frames_decoded);
    EXPECT_EQ(ra.stats.nals_deleted, rb.stats.nals_deleted);
    EXPECT_EQ(ra.stats.mode_switches, rb.stats.mode_switches);
    EXPECT_EQ(ra.stats.app_launches, rb.stats.app_launches);
  }
  EXPECT_EQ(a.server.results_routed, b.server.results_routed);
  EXPECT_EQ(a.server.degrade_ticks, b.server.degrade_ticks);
  EXPECT_EQ(a.batcher.flushes, b.batcher.flushes);
  EXPECT_EQ(a.batcher.windows, b.batcher.windows);
  EXPECT_EQ(a.final_level, b.final_level);
}

// ------------------------------------------------------------ label age

// Every routed label records its age in the registry:
// serve.label_latency_ticks is how many ticks its window waited at the
// batcher, serve.label_latency_ns that wait times tick_s plus the
// routing tick's wall time so far.  The default server classifies every
// window the tick it was staged, duty-cycled sessions included.
TEST(LabelAge, DefaultServerRoutesLabelsInTheStagingTick) {
#if !(defined(AFFECTSYS_METRICS) && AFFECTSYS_METRICS)
  GTEST_SKIP() << "metrics compiled out";
#else
  affectsys::obs::Registry& reg = affectsys::obs::Registry::global();
  const affectsys::obs::Histogram& ticks =
      reg.histogram("serve.label_latency_ticks");
  const affectsys::obs::Histogram& ns = reg.histogram("serve.label_latency_ns");
  const std::uint64_t count0 = ticks.count();
  const double ticks0 = ticks.sum();
  const std::uint64_t ns_count0 = ns.count();
  const double ns0 = ns.sum();

  serve::SessionManager server(serve::ServerConfig{}, world().env());
  for (int i = 0; i < 4; ++i) server.create_session();
  for (unsigned i = 0; i < 4; ++i) {
    serve::SessionConfig duty;
    duty.seed = 50 + i;
    duty.duty_active_ticks = 2;
    duty.duty_idle_ticks = 3;
    server.create_session(duty);
  }
  for (int t = 0; t < 60; ++t) server.tick();
  EXPECT_EQ(server.backlog(), 0u);
  server.drain();

  const std::uint64_t routed = server.stats().results_routed;
  ASSERT_GT(routed, 0u);
  EXPECT_EQ(ticks.count() - count0, routed);
  EXPECT_EQ(ticks.sum() - ticks0, 0.0);
  EXPECT_EQ(ns.count() - ns_count0, routed);
  EXPECT_GT(ns.sum() - ns0, 0.0);
#endif
}

// At one row a tick (overload_config) labels queue behind each other,
// and their recorded ages carry whole ticks of waiting.
TEST(LabelAge, OverloadedLabelsWaitWholeTicks) {
#if !(defined(AFFECTSYS_METRICS) && AFFECTSYS_METRICS)
  GTEST_SKIP() << "metrics compiled out";
#else
  affectsys::obs::Registry& reg = affectsys::obs::Registry::global();
  const affectsys::obs::Histogram& ticks =
      reg.histogram("serve.label_latency_ticks");
  const affectsys::obs::Histogram& ns = reg.histogram("serve.label_latency_ns");
  const std::uint64_t count0 = ticks.count();
  const double ticks0 = ticks.sum();
  const double ns0 = ns.sum();

  const auto out = run_overloaded(120);
  const double waited = ticks.sum() - ticks0;
  EXPECT_EQ(ticks.count() - count0, out.server.results_routed);
  EXPECT_GE(waited, 1.0);
  // Each label's ns age is at least its tick wait times tick_s (0.1 s).
  EXPECT_GE(ns.sum() - ns0, waited * 1e8);
#endif
}

// ----------------------------------- admission storms under faults

namespace {

namespace fault = affectsys::fault;

/// Outcome of a storm run, shaped for exact two-run comparison.
struct StormOutcome {
  std::vector<serve::SessionReport> survivors;  // id order
  serve::ServerStats server;
  serve::BatcherStats batcher;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t closed = 0;
  int final_level = 0;
};

/// Admission storm against an already-overloaded, fault-injected
/// server: overload watermarks (service capacity 1 window/tick), every
/// admitted session carrying bitstream+audio faults, the batcher
/// randomly forced into fallback, and a plan-driven storm of
/// create_session bursts against a 4-slot server plus deterministic
/// churn (oldest session closed every 17 ticks).  Everything — bursts,
/// burst sizes, faults — comes from seeded FaultPlans, so two runs must
/// shed, reject and degrade identically.
StormOutcome run_admission_storm(int ticks) {
  serve::ServerConfig cfg = overload_config();
  // Six tenants at capacity 1 window/tick is the proven overload shape
  // (run_overloaded); the budget is loose enough that quarantines stay
  // occasional and the offered load keeps the ladder engaged.
  cfg.max_sessions = 6;
  cfg.error_budget = 10;
  cfg.error_window_ticks = 60;
  cfg.quarantine_ticks = 8;
  cfg.fault = fault::FaultConfig{
      0x5702317ull, 0.2, fault::kind_bit(fault::FaultKind::kBatcherFallback)};
  serve::SessionManager server(cfg, world().env());

  fault::FaultPlan storm(fault::FaultConfig{
      2024, 0.3, fault::kind_bit(fault::FaultKind::kAdmissionBurst)});

  StormOutcome out;
  std::vector<serve::SessionId> ids;
  const auto admit = [&] {
    serve::SessionConfig scfg;
    scfg.seed = static_cast<unsigned>(500 + out.admitted + out.rejected);
    scfg.realtime.max_inflight = 2;
    scfg.fault =
        fault::FaultConfig{90 + out.admitted, 0.15,
                           fault::kNalUnitKinds | fault::kAudioKinds};
    try {
      ids.push_back(server.create_session(scfg));
      ++out.admitted;
    } catch (const serve::AdmissionError&) {
      ++out.rejected;  // backpressure, absorbed
    }
  };

  for (int i = 0; i < 6; ++i) admit();
  for (int t = 0; t < ticks; ++t) {
    if (storm.next(fault::kind_bit(fault::FaultKind::kAdmissionBurst))) {
      const auto burst = 2 + storm.draw(3);
      for (std::uint64_t i = 0; i < burst; ++i) admit();
    }
    if (t % 17 == 16 && server.open_sessions() > 2) {
      for (const auto id : ids) {
        if (server.has_session(id)) {
          server.close_session(id);
          ++out.closed;
          break;
        }
      }
    }
    server.tick();
  }
  server.drain();

  for (const auto id : ids) {
    if (server.has_session(id)) out.survivors.push_back(server.report(id));
  }
  out.server = server.stats();
  out.batcher = server.batcher_stats();
  out.final_level = server.degrade_level();
  return out;
}

}  // namespace

TEST(AdmissionStorm, ShedsDeterministicallyUnderLadderAndFaults) {
  const StormOutcome a = run_admission_storm(200);
  const StormOutcome b = run_admission_storm(200);

  // The storm actually stressed everything at once: rejections at the
  // admission edge, the backlog ladder engaged, faults fired inside
  // sessions, and the batcher was forced through its fallback path.
  EXPECT_GT(a.rejected, 0u);
  EXPECT_EQ(a.server.sessions_rejected, a.rejected);
  EXPECT_GT(a.server.degrade_ticks, 0u);
  EXPECT_GT(a.batcher.forced_fallback_flushes, 0u);
  EXPECT_GT(a.survivors.size(), 0u);

  // Two-run replay identity, down to every survivor's bytes.
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.closed, b.closed);
  EXPECT_EQ(a.final_level, b.final_level);
  EXPECT_EQ(a.server.sessions_created, b.server.sessions_created);
  EXPECT_EQ(a.server.sessions_rejected, b.server.sessions_rejected);
  EXPECT_EQ(a.server.sessions_quarantined, b.server.sessions_quarantined);
  EXPECT_EQ(a.server.sessions_restarted, b.server.sessions_restarted);
  EXPECT_EQ(a.server.results_routed, b.server.results_routed);
  EXPECT_EQ(a.server.results_dropped_quarantined,
            b.server.results_dropped_quarantined);
  EXPECT_EQ(a.server.degrade_ticks, b.server.degrade_ticks);
  EXPECT_EQ(a.server.max_degrade_level, b.server.max_degrade_level);
  EXPECT_EQ(a.batcher.flushes, b.batcher.flushes);
  EXPECT_EQ(a.batcher.windows, b.batcher.windows);
  EXPECT_EQ(a.batcher.forced_fallback_flushes,
            b.batcher.forced_fallback_flushes);
  ASSERT_EQ(a.survivors.size(), b.survivors.size());
  for (std::size_t i = 0; i < a.survivors.size(); ++i) {
    const auto& ra = a.survivors[i];
    const auto& rb = b.survivors[i];
    EXPECT_TRUE(windows_bitwise_equal(ra.windows, rb.windows))
        << "survivor " << i;
    EXPECT_EQ(ra.stable_trace, rb.stable_trace) << "survivor " << i;
    EXPECT_EQ(ra.decode_digest, rb.decode_digest) << "survivor " << i;
    EXPECT_EQ(ra.stats.decode_errors, rb.stats.decode_errors);
    EXPECT_EQ(ra.stats.chunks_dropped, rb.stats.chunks_dropped);
    EXPECT_EQ(ra.stats.frames_dropped, rb.stats.frames_dropped);
    EXPECT_EQ(ra.stats.nals_deleted, rb.stats.nals_deleted);
  }
}

// --------------------------------------------------------------- batching

TEST(Batcher, MlpModelIsBatchable) {
  serve::InferenceBatcher batcher(world().classifier, serve::BatcherConfig{});
  EXPECT_TRUE(batcher.batchable());
}

TEST(Batcher, BatchedResultsAreBitIdenticalToPerWindowForwards) {
  auto& w = world();
  affect::FeatureExtractor fx(w.classifier.feature_config());
  affect::SpeechSynthesizer synth(11);

  // Eight distinct windows (mixed emotions/speakers) as one batch.
  std::vector<nn::Matrix> features;
  for (int i = 0; i < 8; ++i) {
    const auto e =
        (i % 2 == 0) ? affect::Emotion::kAngry : affect::Emotion::kCalm;
    const auto utt = synth.synthesize(e, i, 1.0, 16000.0, 0.1);
    features.push_back(fx.extract(utt.samples));
  }

  auto run = [&](bool batched) {
    serve::BatcherConfig cfg;
    cfg.max_batch = 8;
    serve::InferenceBatcher batcher(w.classifier, cfg);
    batcher.force_fallback(!batched);
    for (std::size_t i = 0; i < features.size(); ++i) {
      serve::InferenceRequest req;
      req.session = i + 1;
      req.seq = i;
      req.t_end = static_cast<double>(i);
      req.set_features(features[i]);
      batcher.enqueue(std::move(req));
    }
    return batcher.flush();
  };

  const auto batched = run(true);
  const auto unbatched = run(false);
  ASSERT_EQ(batched.size(), features.size());
  ASSERT_EQ(unbatched.size(), features.size());
  for (std::size_t i = 0; i < features.size(); ++i) {
    EXPECT_EQ(batched[i].session, unbatched[i].session);
    EXPECT_EQ(batched[i].seq, unbatched[i].seq);
    EXPECT_EQ(batched[i].result.emotion, unbatched[i].result.emotion);
    const auto& pa = batched[i].result.probabilities;
    const auto& pb = unbatched[i].result.probabilities;
    ASSERT_EQ(pa.size(), pb.size());
    EXPECT_EQ(std::memcmp(pa.data(), pb.data(), pa.size() * sizeof(float)), 0)
        << "probability bits differ for window " << i;

    // Both agree bit-for-bit with the classifier's own entry point.
    const auto direct = w.classifier.classify_features(features[i]);
    ASSERT_EQ(pa.size(), direct.probabilities.size());
    EXPECT_EQ(std::memcmp(pa.data(), direct.probabilities.data(),
                          pa.size() * sizeof(float)),
              0);
  }
}

TEST(Batcher, FlushRespectsCapacity) {
  auto& w = world();
  serve::BatcherConfig cfg;
  cfg.max_batch = 4;
  serve::InferenceBatcher batcher(w.classifier, cfg);

  affect::FeatureExtractor fx(w.classifier.feature_config());
  affect::SpeechSynthesizer synth(5);
  const auto utt = synth.synthesize(affect::Emotion::kAngry, 0, 1.0, 16000.0, 0.1);
  const nn::Matrix f = fx.extract(utt.samples);

  auto enqueue_at = [&](std::uint64_t tick) {
    serve::InferenceRequest req;
    req.session = 1;
    req.seq = 0;
    req.enqueue_tick = tick;
    req.set_features(f);
    batcher.enqueue(std::move(req));
  };

  EXPECT_FALSE(batcher.should_flush(0));  // empty
  enqueue_at(5);
  EXPECT_TRUE(batcher.should_flush(5));  // one fresh window is due

  for (int i = 0; i < 5; ++i) enqueue_at(5);
  EXPECT_EQ(batcher.flush().size(), 4u);  // capacity per flush
  EXPECT_EQ(batcher.pending(), 2u);
}

// ---------------------------------------------------------- byte identity

// The headline contract: one session through the whole server — sink,
// batcher, routing — is byte-identical to the standalone pipeline
// (inline classification at the sink), down to probability bits and the
// digest of every decoded pixel.
TEST(ByteIdentity, ServedSingleSessionMatchesStandalonePipeline) {
  auto& w = world();
  serve::SessionConfig scfg;
  scfg.seed = 42;

  // Standalone reference: classification happens at the sink.
  serve::Session standalone(1, scfg, w.env(), /*inline_inference=*/true);
  constexpr int kTicks = 250;
  for (int t = 0; t < kTicks; ++t) {
    standalone.pump_audio(static_cast<std::uint64_t>(t));
    standalone.tick_media(static_cast<std::uint64_t>(t), 0);
  }
  const auto ref = standalone.report();

  // Served: same seed, default server.
  serve::SessionManager server(serve::ServerConfig{}, w.env());
  const auto id = server.create_session(scfg);
  for (int t = 0; t < kTicks; ++t) server.tick();
  server.drain();
  const auto served = server.report(id);

  EXPECT_TRUE(windows_bitwise_equal(ref.windows, served.windows));
  EXPECT_EQ(ref.stable_trace, served.stable_trace);
  EXPECT_EQ(ref.decode_digest, served.decode_digest);
  EXPECT_EQ(ref.stats.windows_enqueued, served.stats.windows_enqueued);
  EXPECT_EQ(ref.stats.results_applied, served.stats.results_applied);
  EXPECT_EQ(ref.stats.frames_decoded, served.stats.frames_decoded);
  EXPECT_EQ(ref.stats.frames_dropped, served.stats.frames_dropped);
  EXPECT_EQ(ref.stats.nals_deleted, served.stats.nals_deleted);
  EXPECT_EQ(ref.stats.mode_switches, served.stats.mode_switches);
  EXPECT_EQ(ref.stats.app_launches, served.stats.app_launches);
  EXPECT_EQ(ref.realtime.windows_classified, served.realtime.windows_classified);
  EXPECT_EQ(ref.realtime.windows_dropped, 0u);
  EXPECT_EQ(served.realtime.windows_dropped, 0u);
  EXPECT_EQ(ref.apps.cold_starts, served.apps.cold_starts);
  EXPECT_EQ(ref.apps.kills, served.apps.kills);
  // Sanity: the run actually exercised the pipeline.
  EXPECT_GT(ref.windows.size(), 10u);
  EXPECT_FALSE(ref.stable_trace.empty());
  EXPECT_GT(ref.stats.frames_decoded, 0u);
}
