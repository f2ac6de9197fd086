// Inference-ladder Pareto sweep: what each precision rung (fp32 MLP,
// int8 quantized MLP, binary HDC) costs and buys on the serving shapes,
// and what the ladder is worth end-to-end — sustained real-time
// sessions with the ladder on vs off.  Dumps BENCH_inference.json;
// tools/run_verify.sh `inference` mode regresses ladder_on
// sustained_sessions against the committed copy.
//
// Rung throughput is measured through the real serving inference stage
// (an InferenceBatcher flushing rung-stamped requests), so the numbers
// include quantize/dequantize and result extraction, not just the
// GEMM.  Accuracy columns come from the same held-out split every rung
// trained against: `accuracy` is agreement with the test labels,
// `agreement_vs_fp32` is how often the cheap rung matches the decision
// the fp32 rung would have made — the serving-relevant error, since the
// ladder substitutes rungs mid-session.
//
// Gates (the ladder's reason to exist):
//   - HDC rung >= 3x fp32 windows/sec through the batcher;
//   - int8 rung >= 1.5x fp32 windows/sec through the batcher;
//   - ladder-on sustains >= the ladder-off session count, without
//     shedding more frames at the common sustained point.
//
// Usage: bench_inference [output.json]   (default: BENCH_inference.json)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "affect/dataset.hpp"
#include "affect/hdc.hpp"
#include "android/catalog.hpp"
#include "android/personality.hpp"
#include "core/affect_table.hpp"
#include "core/thread_pool.hpp"
#include "host_info.hpp"
#include "nn/model.hpp"
#include "nn/quantize.hpp"
#include "obs/json.hpp"
#include "serve/server.hpp"

using namespace affectsys;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <typename F>
double min_seconds(F&& fn, int rounds = 3) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < rounds; ++r) {
    const auto t0 = Clock::now();
    fn();
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx =
      static_cast<std::size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

/// The corpus every rung trains on — identical to bench_serve's, so the
/// serve numbers compare across benches.
affect::CorpusProfile bench_profile() {
  affect::CorpusProfile prof;
  prof.name = "serve-bench";
  prof.num_speakers = 4;
  prof.emotions = {affect::Emotion::kAngry, affect::Emotion::kCalm};
  prof.utterances_per_speaker_emotion = 6;
  prof.utterance_seconds = 1.0;
  prof.speaker_spread = 0.1;
  return prof;
}

affect::AffectClassifier train_classifier() {
  nn::TrainConfig tc;
  tc.epochs = 8;
  tc.batch_size = 8;
  tc.learning_rate = 2e-3f;
  return affect::train_affect_classifier(nn::ModelKind::kMlp, bench_profile(),
                                         tc);
}

/// Per-rung measurements through the serving inference stage.
struct RungPoint {
  double windows_per_sec = 0.0;
  double accuracy = 0.0;           ///< vs held-out labels
  double agreement_vs_fp32 = 0.0;  ///< same decision as the fp32 rung
};

/// Flushes `test` repeatedly through a batcher with every request
/// stamped `rung` and returns windows/sec (min-of-3 rounds).
double rung_wps(affect::AffectClassifier& clf, const serve::LadderRuntime& rt,
                const nn::Dataset& test, serve::Rung rung) {
  serve::BatcherConfig bc;
  bc.max_batch = 16;
  serve::InferenceBatcher b(clf, bc, rt);
  auto flush_all = [&] {
    std::size_t i = 0;
    while (i < test.size()) {
      const std::size_t n = std::min<std::size_t>(bc.max_batch,
                                                  test.size() - i);
      for (std::size_t j = 0; j < n; ++j, ++i) {
        serve::InferenceRequest req;
        req.session = i + 1;
        req.seq = i;
        req.rung = rung;
        req.set_features(test[i].features);
        b.enqueue(std::move(req));
      }
      b.flush();
    }
  };
  flush_all();  // warm: batch/workspace matrices at capacity
  constexpr int kReps = 30;
  const double s = min_seconds([&] {
    for (int r = 0; r < kReps; ++r) flush_all();
  });
  return s > 0.0 ? static_cast<double>(test.size()) * kReps / s : 0.0;
}

/// Per-window decisions of one rung over the test split.
std::vector<affect::Emotion> rung_decisions(affect::AffectClassifier& clf,
                                            const serve::LadderRuntime& rt,
                                            const nn::Dataset& test,
                                            serve::Rung rung) {
  serve::BatcherConfig bc;
  bc.max_batch = 1;  // one request per flush: per-window decisions
  serve::InferenceBatcher b(clf, bc, rt);
  std::vector<affect::Emotion> out;
  out.reserve(test.size());
  for (std::size_t i = 0; i < test.size(); ++i) {
    serve::InferenceRequest req;
    req.session = i + 1;
    req.seq = i;
    req.rung = rung;
    req.set_features(test[i].features);
    b.enqueue(std::move(req));
    const auto res = b.flush();
    out.push_back(res.at(0).result.emotion);
  }
  return out;
}

struct LadderPoint {
  std::size_t sessions = 0;
  double p99_ms = 0.0;
  double windows_per_sec = 0.0;
  double shed_rate = 0.0;  ///< frames dropped / frames due
  std::uint64_t windows_int8 = 0;
  std::uint64_t windows_hdc = 0;
  bool realtime = false;
};

/// One end-to-end serving point (mirrors bench_serve's sweep shape).
LadderPoint run_ladder_point(const serve::SessionEnv& env,
                             serve::ServerConfig cfg, std::size_t n) {
  cfg.max_sessions = n;
  cfg.session.record_trace = false;
  serve::SessionManager server(cfg, env);
  for (std::size_t i = 0; i < n; ++i) {
    server.create_session();
    server.tick();  // staggered admission, as in bench_serve
  }
  for (int t = 0; t < 40; ++t) server.tick();

  const auto windows_before = server.batcher_stats().windows;
  std::vector<double> tick_ms;
  constexpr int kTimedTicks = 60;
  tick_ms.reserve(kTimedTicks);
  const auto t0 = Clock::now();
  for (int t = 0; t < kTimedTicks; ++t) {
    const auto a = Clock::now();
    server.tick();
    tick_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - a).count());
  }
  const double total_s = seconds_since(t0);

  LadderPoint pt;
  pt.sessions = n;
  pt.p99_ms = percentile(tick_ms, 0.99);
  pt.windows_per_sec =
      total_s > 0.0
          ? static_cast<double>(server.batcher_stats().windows -
                                windows_before) /
                total_s
          : 0.0;
  pt.windows_int8 = server.batcher_stats().windows_int8;
  pt.windows_hdc = server.batcher_stats().windows_hdc;
  std::uint64_t dropped = 0, decoded = 0;
  for (std::size_t id = 1; id <= n; ++id) {
    const auto& st = server.session(id).stats();
    dropped += st.frames_dropped;
    decoded += st.frames_decoded;
  }
  pt.shed_rate = (dropped + decoded) > 0
                     ? static_cast<double>(dropped) /
                           static_cast<double>(dropped + decoded)
                     : 0.0;
  pt.realtime = pt.p99_ms <= cfg.session.tick_s * 1000.0;
  return pt;
}

serve::ServerConfig serving_config(bool ladder_on) {
  serve::ServerConfig cfg;
  cfg.batcher.max_batch = 64;
  cfg.ladder.enabled = ladder_on;
  if (ladder_on) {
    // Precision pressure engages well before the frame-shed ladder
    // (server backlog_hi stays at its default 48): drop precision
    // first, frames last.
    cfg.ladder.backlog_hi = 12;
    cfg.ladder.backlog_lo = 4;
    cfg.ladder.conf_int8 = 0.55f;
    cfg.ladder.conf_hdc = 0.70f;
    cfg.ladder.calm_windows = 2;
    cfg.ladder.hysteresis_ticks = 5;
  }
  return cfg;
}

void write_ladder_point(obs::JsonWriter& w, const LadderPoint& pt) {
  w.begin_object();
  w.key("sessions").value(static_cast<std::uint64_t>(pt.sessions));
  w.key("p99_tick_ms").value(pt.p99_ms);
  w.key("windows_per_sec").value(pt.windows_per_sec);
  w.key("shed_rate").value(pt.shed_rate);
  w.key("windows_int8").value(pt.windows_int8);
  w.key("windows_hdc").value(pt.windows_hdc);
  w.key("realtime").value(pt.realtime);
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_inference.json";

  std::printf("training fp32 + int8 + hdc models...\n");
  affect::AffectClassifier classifier = train_classifier();
  auto quantized = nn::QuantizedMlp::from(classifier.model());
  if (!quantized) {
    std::fprintf(stderr, "FAIL: MLP did not quantize\n");
    return 1;
  }
  affect::HdcClassifier hdc =
      affect::train_hdc_classifier(bench_profile(), affect::HdcConfig{});
  serve::LadderRuntime rt;
  rt.int8_model = &*quantized;
  rt.hdc = &hdc;

  // The same held-out split every rung trained against (split_seed 1,
  // corpus_seed 7 — what train_affect_classifier/train_hdc_classifier
  // use).
  const affect::FeatureExtractor fx(classifier.feature_config());
  const affect::LabelledCorpus corpus = build_corpus(bench_profile(), fx, 7);
  nn::Dataset train_set, test_set;
  nn::split_dataset(corpus.samples, 0.2, 1, train_set, test_set);
  std::printf("held-out windows: %zu\n", test_set.size());

  // ---- per-rung Pareto: windows/sec through the serving batcher vs
  // accuracy on the held-out split.
  const std::size_t threads_before = core::global_threads();
  core::set_global_threads(0);  // single-core, like the kernel bench
  const serve::Rung rungs[] = {serve::Rung::kFp32, serve::Rung::kInt8,
                               serve::Rung::kHdc};
  RungPoint pts[3];
  std::vector<affect::Emotion> fp32_dec =
      rung_decisions(classifier, rt, test_set, serve::Rung::kFp32);
  for (int r = 0; r < 3; ++r) {
    pts[r].windows_per_sec = rung_wps(classifier, rt, test_set, rungs[r]);
    const auto dec = rung_decisions(classifier, rt, test_set, rungs[r]);
    std::size_t correct = 0, agree = 0;
    for (std::size_t i = 0; i < test_set.size(); ++i) {
      if (dec[i] == corpus.label_set.at(test_set[i].label)) ++correct;
      if (dec[i] == fp32_dec[i]) ++agree;
    }
    pts[r].accuracy =
        static_cast<double>(correct) / static_cast<double>(test_set.size());
    pts[r].agreement_vs_fp32 =
        static_cast<double>(agree) / static_cast<double>(test_set.size());
    std::printf("%-5s %9.0f win/s  accuracy %.3f  vs-fp32 %.3f\n",
                serve::rung_name(rungs[r]), pts[r].windows_per_sec,
                pts[r].accuracy, pts[r].agreement_vs_fp32);
  }
  core::set_global_threads(threads_before);
  const double int8_speedup =
      pts[0].windows_per_sec > 0.0
          ? pts[1].windows_per_sec / pts[0].windows_per_sec
          : 0.0;
  const double hdc_speedup =
      pts[0].windows_per_sec > 0.0
          ? pts[2].windows_per_sec / pts[0].windows_per_sec
          : 0.0;

  // ---- end-to-end: ladder on vs off, sustained real-time sessions.
  std::printf("serving sweep (ladder off vs on)...\n");
  serve::SharedWorkload workload{serve::WorkloadConfig{}};
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
  env.hdc = &hdc;

  const std::vector<std::size_t> counts = {8, 16, 32, 64};
  std::vector<LadderPoint> off_pts, on_pts;
  std::size_t sustained_off = 0, sustained_on = 0;
  bool off_prefix = true, on_prefix = true;
  for (const std::size_t n : counts) {
    const LadderPoint off = run_ladder_point(env, serving_config(false), n);
    const LadderPoint on = run_ladder_point(env, serving_config(true), n);
    std::printf(
        "%4zu sessions: off p99 %6.2f ms %s shed %.3f | on p99 %6.2f ms %s "
        "shed %.3f (int8 %llu, hdc %llu)\n",
        n, off.p99_ms, off.realtime ? "rt " : "OVR", off.shed_rate, on.p99_ms,
        on.realtime ? "rt " : "OVR", on.shed_rate,
        static_cast<unsigned long long>(on.windows_int8),
        static_cast<unsigned long long>(on.windows_hdc));
    off_prefix = off_prefix && off.realtime;
    on_prefix = on_prefix && on.realtime;
    if (off_prefix) sustained_off = n;
    if (on_prefix) sustained_on = n;
    off_pts.push_back(off);
    on_pts.push_back(on);
  }
  // Shed comparison at the largest count both configurations sustained.
  double shed_off = 0.0, shed_on = 0.0;
  const std::size_t common = std::min(sustained_off, sustained_on);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == common) {
      shed_off = off_pts[i].shed_rate;
      shed_on = on_pts[i].shed_rate;
    }
  }

  obs::JsonWriter w;
  w.begin_object();
  w.key("bench").value("inference");
  bench::write_host_info(w);
  w.key("rungs").begin_object();
  const char* names[] = {"fp32", "int8", "hdc"};
  for (int r = 0; r < 3; ++r) {
    w.key(names[r]).begin_object();
    w.key("windows_per_sec").value(pts[r].windows_per_sec);
    w.key("accuracy").value(pts[r].accuracy);
    w.key("agreement_vs_fp32").value(pts[r].agreement_vs_fp32);
    w.key("speedup_vs_fp32")
        .value(pts[0].windows_per_sec > 0.0
                   ? pts[r].windows_per_sec / pts[0].windows_per_sec
                   : 0.0);
    w.end_object();
  }
  w.end_object();
  w.key("ladder_off").begin_object();
  w.key("sustained_sessions").value(static_cast<std::uint64_t>(sustained_off));
  w.key("shed_rate_at_common").value(shed_off);
  w.key("sweep").begin_array();
  for (const LadderPoint& pt : off_pts) write_ladder_point(w, pt);
  w.end_array();
  w.end_object();
  w.key("ladder_on").begin_object();
  w.key("sustained_sessions").value(static_cast<std::uint64_t>(sustained_on));
  w.key("shed_rate_at_common").value(shed_on);
  w.key("sweep").begin_array();
  for (const LadderPoint& pt : on_pts) write_ladder_point(w, pt);
  w.end_array();
  w.end_object();
  w.end_object();

  std::ofstream out(out_path);
  out << w.str() << "\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("sustained: off %zu, on %zu\nwrote %s\n", sustained_off,
              sustained_on, out_path.c_str());

  bool ok = true;
  if (hdc_speedup < 3.0) {
    std::fprintf(stderr, "FAIL: HDC rung %.2fx fp32 (need >= 3x)\n",
                 hdc_speedup);
    ok = false;
  }
  if (int8_speedup < 1.5) {
    std::fprintf(stderr, "FAIL: int8 rung %.2fx fp32 (need >= 1.5x)\n",
                 int8_speedup);
    ok = false;
  }
  if (sustained_on < sustained_off) {
    std::fprintf(stderr,
                 "FAIL: ladder-on sustains %zu sessions < ladder-off %zu\n",
                 sustained_on, sustained_off);
    ok = false;
  }
  if (shed_on > shed_off + 1e-9) {
    std::fprintf(stderr,
                 "FAIL: ladder-on sheds more frames (%.4f vs %.4f) at %zu "
                 "sessions\n",
                 shed_on, shed_off, common);
    ok = false;
  }
  return ok ? 0 : 1;
}
