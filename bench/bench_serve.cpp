// Session-server capacity sweep: how many concurrent end-to-end
// sessions (affect stream -> adaptive decode -> app manager) one
// process sustains in real time, what cross-session batching buys over
// per-session inference, and how many mostly-idle duty-cycled sessions
// the timer wheel carries.  Dumps
// BENCH_serve.json; tools/run_verify.sh `serve` mode regresses
// sustained_sessions and sustained_idle_sessions against the committed
// copy.
//
// Real-time criterion: a tick advances tick_s = 100 ms of media time,
// so a session count is "sustained" when the p99 tick wall time stays
// under 100 ms — the server keeps up with capture even at its slowest —
// and no session shed a frame or dropped a window during the timed
// ticks (a server that sheds keeps its tick short by doing less work).
// The active sweep doubles the session count from 1 until the first
// point fails (or 1,024 sessions, to bound memory), so
// sustained_sessions is the knee, and knee_limit names what failed
// there: "p99", "shed", or both.
//
// Warm-up: every sweep point runs long enough before the timed region
// for the steady state to establish — staging rings, buffer pool and
// batcher scratch at their high-water marks, the clip past its first
// wrap, the window cadence live — so the percentiles measure the steady
// state, not first-touch allocation spikes (p10 is reported alongside
// p50/p99 to make residual skew visible: a warm steady state has a
// tight p10..p99 spread).
//
// The batch section times the inference stage in isolation (identical
// pending windows through a batched and an unbatched InferenceBatcher)
// and verifies the two produce bit-identical probabilities before
// trusting the throughput numbers; the bench fails hard if batching at
// 8 rows is not a win, since that is the point of the serve layer.
//
// Usage: bench_serve [output.json]   (default: BENCH_serve.json)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "affect/speech_synth.hpp"
#include "android/catalog.hpp"
#include "android/personality.hpp"
#include "core/affect_table.hpp"
#include "core/thread_pool.hpp"
#include "host_info.hpp"
#include "nn/model.hpp"
#include "obs/alloc_hooks.hpp"
#include "obs/json.hpp"
#include "serve/server.hpp"

using namespace affectsys;

namespace {

using Clock = std::chrono::steady_clock;

struct SweepPoint {
  std::size_t sessions = 0;
  double p10_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double windows_per_sec = 0.0;
  std::uint64_t batched_windows = 0;
  std::uint64_t session_runs = 0;  ///< due-list work actually executed
  std::uint64_t frames_shed = 0;      ///< over the timed ticks
  std::uint64_t windows_dropped = 0;  ///< over the timed ticks
  bool realtime = false;  ///< p99 within the tick
  /// Empty when the point is sustained, else what failed: "p99",
  /// "shed" (frames shed or windows dropped), or "p99+shed".
  std::string limit;
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

affect::AffectClassifier train_classifier() {
  affect::CorpusProfile prof;
  prof.name = "serve-bench";
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
}

SweepPoint run_sweep_point(const serve::SessionEnv& env,
                           serve::ServerConfig cfg, std::size_t n,
                           std::size_t admit_per_tick, int warmup_ticks,
                           int timed_ticks) {
  cfg.max_sessions = n;
  serve::SessionManager server(cfg, env);
  // Staggered admission (a few joins per tick), like any real arrival
  // process: it spreads the per-session window schedules across ticks.
  // Admitting everyone in the same tick phase-locks every session's
  // stride and turns each 5th tick into an N-window burst — a
  // worst-case the server survives via its backlog, but not a steady
  // state to size capacity from.
  std::vector<serve::SessionId> ids;
  for (std::size_t i = 0; i < n;) {
    for (std::size_t j = 0; j < admit_per_tick && i < n; ++j, ++i) {
      ids.push_back(server.create_session());
    }
    server.tick();
  }
  // Frames shed and windows dropped so far, summed over the fleet.
  const auto shed = [&] {
    std::pair<std::uint64_t, std::uint64_t> sum{0, 0};
    for (const serve::SessionId id : ids) {
      const serve::Session& s = server.session(id);
      sum.first += s.stats().frames_dropped;
      sum.second += s.dropped_windows();
    }
    return sum;
  };

  for (int t = 0; t < warmup_ticks; ++t) server.tick();
  const auto windows_before = server.batcher_stats().windows;
  const auto runs_before = server.stats().session_runs;
  const auto shed_before = shed();

  std::vector<double> tick_ms;
  tick_ms.reserve(static_cast<std::size_t>(timed_ticks));
  const auto t0 = Clock::now();
  for (int t = 0; t < timed_ticks; ++t) {
    const auto a = Clock::now();
    server.tick();
    tick_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - a).count());
  }
  const double total_s = std::chrono::duration<double>(Clock::now() - t0).count();
  const auto shed_after = shed();

  SweepPoint pt;
  pt.sessions = n;
  pt.p10_ms = percentile(tick_ms, 0.10);
  pt.p50_ms = percentile(tick_ms, 0.50);
  pt.p99_ms = percentile(tick_ms, 0.99);
  double sum = 0.0;
  for (const double v : tick_ms) sum += v;
  pt.mean_ms = sum / static_cast<double>(tick_ms.size());
  pt.windows_per_sec =
      total_s > 0.0
          ? static_cast<double>(server.batcher_stats().windows - windows_before) /
                total_s
          : 0.0;
  pt.batched_windows = server.batcher_stats().batched_windows;
  pt.session_runs = server.stats().session_runs - runs_before;
  pt.frames_shed = shed_after.first - shed_before.first;
  pt.windows_dropped = shed_after.second - shed_before.second;
  pt.realtime = pt.p99_ms <= cfg.session.tick_s * 1000.0;
  const bool shedding = pt.frames_shed != 0 || pt.windows_dropped != 0;
  pt.limit = !pt.realtime ? (shedding ? "p99+shed" : "p99")
                          : (shedding ? "shed" : "");
  return pt;
}

/// The serving configuration the sweep measures: a 64-row batcher.
serve::ServerConfig serving_config() {
  serve::ServerConfig cfg;
  cfg.batcher.max_batch = 64;
  return cfg;
}

/// Mostly-idle fleet point: duty-cycled sessions (8 active ticks, then
/// 248 idle — a 1/32 duty factor) on the timer wheel.  record_trace off
/// so a thousand sessions do not grow replay logs for the bench's
/// duration.
SweepPoint run_idle_point(const serve::SessionEnv& env, std::size_t n) {
  serve::ServerConfig cfg = serving_config();
  cfg.session.duty_active_ticks = 8;
  cfg.session.duty_idle_ticks = 248;
  cfg.session.record_trace = false;
  // Watermarks scale with the due set, not the fleet: ~n/32 sessions
  // are awake per tick, each emitting at most one window per 5 ticks.
  cfg.backlog_hi = std::max<std::size_t>(48, n / 8);
  cfg.backlog_lo = cfg.backlog_hi / 3;
  return run_sweep_point(env, cfg, n, /*admit_per_tick=*/8,
                         /*warmup_ticks=*/260, /*timed_ticks=*/300);
}

/// Steady-state allocation probe: 8 pooled sessions ticking inline
/// (thread pool off, as on the paper's single-core edge target) must
/// not touch the allocator at all once warm.  The probe env drops the
/// app manager — the zero-allocation contract covers the pooled serve
/// path (audio -> features -> batcher -> decode), not the Android app
/// emulator riding on top of it.  Returns the allocation count over
/// 100 steady ticks, or -1 when the new/delete hooks are compiled out
/// (non-AFFECTSYS_METRICS build).
std::int64_t run_alloc_probe(serve::SessionEnv env) {
  if (!obs::alloc_tracking_enabled()) return -1;
  env.app_table = nullptr;
  env.catalog = nullptr;
  const std::size_t threads_before = core::global_threads();
  core::set_global_threads(0);

  serve::ServerConfig cfg = serving_config();
  cfg.session.record_trace = false;
  serve::SessionManager server(cfg, env);
  for (int i = 0; i < 8; ++i) server.create_session();
  for (int i = 0; i < 150; ++i) server.tick();

  const std::uint64_t before = obs::alloc_count();
  for (int i = 0; i < 100; ++i) server.tick();
  const std::uint64_t after = obs::alloc_count();

  core::set_global_threads(threads_before);
  return static_cast<std::int64_t>(after - before);
}

struct BatchResult {
  double batched_wps = 0.0;
  double unbatched_wps = 0.0;
  bool identical = true;
};

/// Times the inference stage alone: the same `rows` pending windows,
/// flushed through a batched batcher and one forced onto the per-window
/// fallback, repeatedly.
BatchResult run_batch_compare(affect::AffectClassifier& clf,
                              std::size_t rows, int reps) {
  affect::FeatureExtractor fx(clf.feature_config());
  affect::SpeechSynthesizer synth(17);
  std::vector<nn::Matrix> features;
  for (std::size_t i = 0; i < rows; ++i) {
    const auto e = (i % 2 == 0) ? affect::Emotion::kAngry
                                : affect::Emotion::kCalm;
    const auto utt =
        synth.synthesize(e, static_cast<int>(i), 1.0, 16000.0, 0.1);
    features.push_back(fx.extract(utt.samples));
  }

  auto flush_once = [&](serve::InferenceBatcher& b) {
    for (std::size_t i = 0; i < rows; ++i) {
      serve::InferenceRequest req;
      req.session = i + 1;
      req.seq = i;
      req.set_features(features[i]);
      b.enqueue(std::move(req));
    }
    return b.flush();
  };

  auto time_mode = [&](bool batched) {
    serve::BatcherConfig cfg;
    cfg.max_batch = rows;
    serve::InferenceBatcher b(clf, cfg);
    b.force_fallback(!batched);
    // Warm flush: batch/workspace matrices at capacity before timing.
    flush_once(b);
    double best = std::numeric_limits<double>::infinity();
    for (int round = 0; round < 3; ++round) {
      const auto t0 = Clock::now();
      for (int r = 0; r < reps; ++r) flush_once(b);
      best = std::min(
          best, std::chrono::duration<double>(Clock::now() - t0).count());
    }
    return best > 0.0 ? static_cast<double>(rows) * reps / best : 0.0;
  };

  BatchResult res;
  res.batched_wps = time_mode(true);
  res.unbatched_wps = time_mode(false);

  // Bit-identity gate: the throughput numbers only matter if the two
  // modes produce the same floats.
  serve::BatcherConfig bc;
  bc.max_batch = rows;
  serve::InferenceBatcher bb(clf, bc);
  serve::InferenceBatcher ub(clf, bc);
  ub.force_fallback(true);
  const auto rb = flush_once(bb);
  const auto ru = flush_once(ub);
  for (std::size_t i = 0; i < rows; ++i) {
    const auto& pa = rb[i].result.probabilities;
    const auto& pb = ru[i].result.probabilities;
    if (pa.size() != pb.size() ||
        std::memcmp(pa.data(), pb.data(), pa.size() * sizeof(float)) != 0) {
      res.identical = false;
    }
  }
  return res;
}

void write_point(obs::JsonWriter& w, const SweepPoint& pt) {
  w.begin_object();
  w.key("sessions").value(static_cast<std::uint64_t>(pt.sessions));
  w.key("p10_tick_ms").value(pt.p10_ms);
  w.key("p50_tick_ms").value(pt.p50_ms);
  w.key("p99_tick_ms").value(pt.p99_ms);
  w.key("mean_tick_ms").value(pt.mean_ms);
  w.key("windows_per_sec").value(pt.windows_per_sec);
  w.key("session_runs").value(pt.session_runs);
  w.key("frames_shed").value(pt.frames_shed);
  w.key("windows_dropped").value(pt.windows_dropped);
  w.key("realtime").value(pt.realtime);
  w.key("sustained").value(pt.limit.empty());
  w.end_object();
}

void print_point(const char* tag, const SweepPoint& pt) {
  std::printf(
      "%s %4zu sessions: p10 %6.2f  p50 %6.2f  p99 %6.2f ms  "
      "%7.1f win/s  shed %llu frames, %llu windows  %s\n",
      tag, pt.sessions, pt.p10_ms, pt.p50_ms, pt.p99_ms, pt.windows_per_sec,
      static_cast<unsigned long long>(pt.frames_shed),
      static_cast<unsigned long long>(pt.windows_dropped),
      pt.limit.empty() ? "sustained" : ("FAILS: " + pt.limit).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_serve.json";

  std::printf("training classifier + synthesizing workload...\n");
  serve::SharedWorkload workload{serve::WorkloadConfig{}};
  affect::AffectClassifier classifier = train_classifier();
  const auto catalog = android::build_catalog(android::EmulatorSpec{});
  core::AppAffectTable table;
  for (const auto e : {affect::Emotion::kAngry, affect::Emotion::kCalm}) {
    table.learn_from_profile(e, android::profile_for_emotion(e), catalog);
  }
  serve::SessionEnv env;
  env.workload = &workload;
  env.classifier = &classifier;
  env.app_table = &table;
  env.catalog = &catalog;

  // ---- active sweep: always-on sessions, serving configuration,
  // doubling until the first point fails (the knee).
  constexpr std::size_t kMaxActive = 1024;
  std::vector<SweepPoint> sweep;
  std::size_t sustained = 0;
  std::string knee_limit = "none up to " + std::to_string(kMaxActive);
  for (std::size_t n = 1; n <= kMaxActive; n *= 2) {
    const SweepPoint pt =
        run_sweep_point(env, serving_config(), n, /*admit_per_tick=*/1,
                        /*warmup_ticks=*/40, /*timed_ticks=*/60);
    print_point("active", pt);
    sweep.push_back(pt);
    if (!pt.limit.empty()) {
      knee_limit = pt.limit;
      break;
    }
    sustained = n;
  }

  // ---- idle sweep: mostly-idle duty-cycled fleet on the wheel.
  std::vector<SweepPoint> idle;
  std::size_t sustained_idle = 0;
  bool idle_prefix = true;
  for (const std::size_t n : {std::size_t{256}, std::size_t{512},
                              std::size_t{1024}}) {
    const SweepPoint pt = run_idle_point(env, n);
    print_point("idle  ", pt);
    idle_prefix = idle_prefix && pt.limit.empty();
    if (idle_prefix) sustained_idle = n;
    idle.push_back(pt);
  }

  // ---- zero-steady-state-allocation gauge (pool-less inline ticks).
  const std::int64_t steady_allocs = run_alloc_probe(env);
  if (steady_allocs < 0) {
    std::printf("steady-state allocs: n/a (alloc hooks compiled out)\n");
  } else {
    std::printf("steady-state allocs over 100 ticks: %lld\n",
                static_cast<long long>(steady_allocs));
  }

  const BatchResult b8 = run_batch_compare(classifier, 8, 200);
  const BatchResult b16 = run_batch_compare(classifier, 16, 200);
  std::printf("batch  8: %8.0f win/s batched vs %8.0f unbatched (%.2fx)%s\n",
              b8.batched_wps, b8.unbatched_wps,
              b8.unbatched_wps > 0.0 ? b8.batched_wps / b8.unbatched_wps : 0.0,
              b8.identical ? "" : "  BIT MISMATCH");
  std::printf("batch 16: %8.0f win/s batched vs %8.0f unbatched (%.2fx)%s\n",
              b16.batched_wps, b16.unbatched_wps,
              b16.unbatched_wps > 0.0 ? b16.batched_wps / b16.unbatched_wps
                                      : 0.0,
              b16.identical ? "" : "  BIT MISMATCH");

  obs::JsonWriter w;
  w.begin_object();
  w.key("bench").value("serve");
  bench::write_host_info(w);
  w.key("sustained_sessions").value(static_cast<std::uint64_t>(sustained));
  w.key("knee_limit").value(knee_limit);
  w.key("sustained_idle_sessions")
      .value(static_cast<std::uint64_t>(sustained_idle));
  w.key("steady_state_allocs").value(static_cast<std::int64_t>(steady_allocs));
  w.key("sweep").begin_array();
  for (const SweepPoint& pt : sweep) write_point(w, pt);
  w.end_array();
  w.key("idle_sweep").begin_array();
  for (const SweepPoint& pt : idle) write_point(w, pt);
  w.end_array();
  w.key("batch").begin_object();
  w.key("rows8_batched_windows_per_sec").value(b8.batched_wps);
  w.key("rows8_unbatched_windows_per_sec").value(b8.unbatched_wps);
  w.key("rows8_speedup")
      .value(b8.unbatched_wps > 0.0 ? b8.batched_wps / b8.unbatched_wps : 0.0);
  w.key("rows16_batched_windows_per_sec").value(b16.batched_wps);
  w.key("rows16_unbatched_windows_per_sec").value(b16.unbatched_wps);
  w.key("rows16_speedup")
      .value(b16.unbatched_wps > 0.0 ? b16.batched_wps / b16.unbatched_wps
                                     : 0.0);
  w.end_object();
  w.end_object();

  std::ofstream out(out_path);
  out << w.str() << "\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("sustained sessions: %zu, knee limit: %s (idle: %zu)\n"
              "wrote %s\n",
              sustained, knee_limit.c_str(), sustained_idle, out_path.c_str());

  if (!b8.identical || !b16.identical) {
    std::fprintf(stderr, "FAIL: batched results not bit-identical\n");
    return 1;
  }
  if (b8.batched_wps <= b8.unbatched_wps) {
    std::fprintf(stderr,
                 "FAIL: batching at 8 rows is not a throughput win\n");
    return 1;
  }
  if (steady_allocs > 0) {
    std::fprintf(stderr,
                 "FAIL: steady-state serve ticks performed %lld allocations\n",
                 static_cast<long long>(steady_allocs));
    return 1;
  }
  return 0;
}
