// Observability benchmark runner: exercises the four instrumented hot
// layers (H.264 decode, real-time affect pipeline, Input Selector, full
// system scenario) and dumps a machine-readable BENCH_observability.json
// snapshot — wall times, windows/sec, NAL filter throughput, decode
// ns/frame, plus the complete metrics-registry dump.  A fifth phase
// sweeps the parallel runtime (serial reference plus 1/2/4 pool
// threads) over the decode, deblock and GEMM hot paths and writes the
// comparison to BENCH_parallel.json.  Both files record the host core
// count and build type.
//
// Usage: bench_main [output.json] [parallel.json]
//        (defaults: BENCH_observability.json, BENCH_parallel.json)
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "adaptive/input_selector.hpp"
#include "affect/classifier.hpp"
#include "affect/realtime.hpp"
#include "affect/speech_synth.hpp"
#include "core/simulator.hpp"
#include "core/thread_pool.hpp"
#include "h264/deblock.hpp"
#include "h264/decoder.hpp"
#include "h264/encoder.hpp"
#include "h264/testvideo.hpp"
#include "host_info.hpp"
#include "nn/matrix.hpp"
#include "nn/model.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

using namespace affectsys;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::vector<std::uint8_t> make_stream() {
  h264::VideoConfig vc{64, 64, 24, 1.2, 0.6, 2.5, 77};
  const auto video = h264::generate_mixed_video(vc, 0.25);
  h264::Encoder enc(h264::EncoderConfig{64, 64, 24, 12, 2, 4, true});
  return enc.encode_annexb(video);
}

struct Summary {
  double wall_s = 0.0;
  double decode_ns_per_frame_wall = 0.0;
  double decode_ns_per_frame_observed = 0.0;
  std::uint64_t frames_decoded = 0;
  double affect_windows_per_sec = 0.0;
  std::uint64_t affect_windows = 0;
  double selector_mb_per_sec = 0.0;
  std::uint64_t selector_bytes = 0;
  double full_system_s = 0.0;
  double playback_energy_saving = 0.0;
  double app_memory_saving = 0.0;
};

affect::AffectClassifier train_bench_classifier() {
  affect::CorpusProfile prof;
  prof.name = "bench";
  prof.num_speakers = 4;
  prof.emotions = {affect::Emotion::kAngry, affect::Emotion::kCalm};
  prof.utterances_per_speaker_emotion = 6;
  prof.utterance_seconds = 1.0;
  prof.speaker_spread = 0.1;
  nn::TrainConfig tc;
  tc.epochs = 6;
  tc.batch_size = 8;
  tc.learning_rate = 2e-3f;
  return affect::train_affect_classifier(nn::ModelKind::kMlp, prof, tc);
}

// --- Parallel-runtime sweep --------------------------------------------------

struct ParallelRow {
  std::size_t threads = 0;  ///< 0 = serial (inline) reference
  double decode_ns_per_frame = 0.0;   ///< multi-stream decode throughput
  double deblock_ns_per_frame = 0.0;  ///< 256x256 in-loop filter
  double gemm_gflops = 0.0;           ///< 256x256x256 float matmul
};

/// A 256x256 frame with deterministic texture plus all-intra MbInfo —
/// every edge gets bs 4, so the filter does maximal work per frame.
h264::YuvFrame make_deblock_frame(std::vector<h264::MbInfo>& mb_info) {
  h264::YuvFrame frame(256, 256);
  auto fill = [](h264::Plane& p) {
    for (int y = 0; y < p.height; ++y) {
      for (int x = 0; x < p.width; ++x) {
        p.at(x, y) =
            static_cast<std::uint8_t>((x * 7 + y * 13 + (x / 16) * 40) & 0xFF);
      }
    }
  };
  fill(frame.y);
  fill(frame.cb);
  fill(frame.cr);
  mb_info.assign(static_cast<std::size_t>(frame.mb_count()), h264::MbInfo{});
  for (auto& mb : mb_info) mb.intra = true;
  return frame;
}

ParallelRow run_parallel_row(std::size_t threads,
                             const std::vector<std::uint8_t>& stream) {
  core::set_global_threads(threads);
  ParallelRow row;
  row.threads = core::global_threads();

  // Decode throughput: independent streams fan out over the pool (the
  // per-session shape of an edge server); inside each task the
  // row-parallel deblock nests inline.  threads == 0 runs the same
  // loop serially on the caller.
  {
    constexpr int kStreams = 6;
    const auto t0 = Clock::now();
    std::vector<std::future<std::size_t>> jobs;
    jobs.reserve(kStreams);
    for (int s = 0; s < kStreams; ++s) {
      jobs.push_back(core::global_pool().submit([&stream] {
        h264::Decoder dec;
        return dec.decode_annexb(stream).size();
      }));
    }
    std::uint64_t frames = 0;
    for (auto& j : jobs) frames += j.get();
    row.decode_ns_per_frame =
        seconds_since(t0) * 1e9 / static_cast<double>(frames);
  }

  // Deblock: row/column-parallel passes over a 16x16-macroblock frame,
  // driven from the caller so parallel_for engages.
  {
    std::vector<h264::MbInfo> mb_info;
    const h264::YuvFrame base = make_deblock_frame(mb_info);
    constexpr int kReps = 12;
    const auto t0 = Clock::now();
    for (int i = 0; i < kReps; ++i) {
      h264::YuvFrame frame = base;  // fresh texture: comparable work per rep
      h264::deblock_frame(frame, mb_info, 32);
    }
    row.deblock_ns_per_frame = seconds_since(t0) * 1e9 / kReps;
  }

  // GEMM: the classifier-scale dense product, blocked and row-parallel.
  {
    constexpr std::size_t kN = 256;
    nn::Matrix a(kN, kN), b(kN, kN);
    for (std::size_t r = 0; r < kN; ++r) {
      for (std::size_t c = 0; c < kN; ++c) {
        a(r, c) = static_cast<float>((r * 31 + c * 17) % 97) / 97.0f - 0.5f;
        b(r, c) = static_cast<float>((r * 13 + c * 29) % 89) / 89.0f - 0.5f;
      }
    }
    constexpr int kReps = 6;
    float sink = 0.0f;
    const auto t0 = Clock::now();
    for (int i = 0; i < kReps; ++i) {
      const nn::Matrix c = a.matmul(b);
      sink += c(0, 0);
    }
    const double dt = seconds_since(t0);
    row.gemm_gflops = 2.0 * static_cast<double>(kN) * kN * kN * kReps /
                      dt / 1e9;
    if (sink == 123.25f) std::printf("(unlikely)\n");  // defeat DCE
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : "BENCH_observability.json";
  const std::string parallel_path =
      argc > 2 ? argv[2] : "BENCH_parallel.json";
  obs::Registry& reg = obs::Registry::global();
  Summary sum;
  // Phases 1-4 are the serial reference the observability snapshot has
  // always measured; the parallel runtime is swept separately in phase 5.
  core::set_global_threads(0);
  const auto bench_start = Clock::now();

  // --- H.264 decode: ns/frame ---------------------------------------------
  std::printf("[1/5] h264 decode...\n");
  const auto stream = make_stream();
  {
    // Warm-up rep outside the timed window: first-use metric
    // registration (registry mutex + map insert) and allocator warm-up
    // otherwise land inside the wall clock but not inside the
    // per-slice decode_ns scope, skewing wall vs observed.
    {
      h264::Decoder warm;
      (void)warm.decode_annexb(stream);
    }
    reg.reset_values();
    const auto t0 = Clock::now();
    std::uint64_t frames = 0;
    constexpr int kReps = 8;
    for (int i = 0; i < kReps; ++i) {
      h264::Decoder dec;
      frames += dec.decode_annexb(stream).size();
    }
    const double dt = seconds_since(t0);
    sum.frames_decoded = frames;
    sum.decode_ns_per_frame_wall = dt * 1e9 / static_cast<double>(frames);
    // Snapshot the observed mean now, while the histogram holds exactly
    // the timed reps: the full-system phase below decodes video of its
    // own, and folding those slices into the mean was the largest part
    // of the historical wall-vs-observed skew.
    sum.decode_ns_per_frame_observed = reg.histogram("h264.decode_ns").mean();
  }

  // --- Real-time affect pipeline: windows/sec ------------------------------
  std::printf("[2/5] affect pipeline (training a small classifier)...\n");
  {
    affect::AffectClassifier clf = train_bench_classifier();
    std::vector<affect::Utterance> bench_audio;
    affect::SpeechSynthesizer synth(7);
    for (int u = 0; u < 12; ++u) {
      bench_audio.push_back(synth.synthesize(
          u % 2 ? affect::Emotion::kCalm : affect::Emotion::kAngry, 40 + u,
          1.0, 16000.0, 0.1));
    }
    affect::RealtimePipeline pipe(clf, affect::RealtimeConfig{});
    const auto t0 = Clock::now();
    double t = 0.0;
    for (const auto& utt : bench_audio) {
      for (std::size_t off = 0; off < utt.samples.size(); off += 1600) {
        const std::size_t n =
            std::min<std::size_t>(1600, utt.samples.size() - off);
        pipe.push_audio(t, {utt.samples.data() + off, n});
        t += 0.1;
      }
    }
    const double dt = seconds_since(t0);
    sum.affect_windows = pipe.stats().windows_considered;
    sum.affect_windows_per_sec =
        static_cast<double>(sum.affect_windows) / dt;
  }

  // --- Input Selector: NAL filter throughput -------------------------------
  std::printf("[3/5] input selector...\n");
  {
    const auto t0 = Clock::now();
    std::uint64_t bytes = 0;
    constexpr int kReps = 64;
    for (int i = 0; i < kReps; ++i) {
      adaptive::InputSelector sel({140, 1});
      sel.filter_annexb(stream);
      bytes += sel.stats().bytes_in;
    }
    const double dt = seconds_since(t0);
    sum.selector_bytes = bytes;
    sum.selector_mb_per_sec = static_cast<double>(bytes) / 1e6 / dt;
  }

  // --- Full-system demo path ----------------------------------------------
  std::printf("[4/5] full-system scenario...\n");
  {
    const auto t0 = Clock::now();
    core::SystemScenarioConfig cfg;
    adaptive::AdaptiveDecoderSystem dec(cfg.playback);
    const auto report = core::run_system_scenario(cfg, dec);
    sum.full_system_s = seconds_since(t0);
    sum.playback_energy_saving = report.playback.energy_saving();
    sum.app_memory_saving = report.app_memory_saving();
  }

  sum.wall_s = seconds_since(bench_start);

  // --- Parallel runtime sweep ----------------------------------------------
  std::printf("[5/5] parallel runtime sweep (serial, 1, 2, 4 threads)...\n");
  std::vector<ParallelRow> rows;
  for (const std::size_t t : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{4}}) {
    rows.push_back(run_parallel_row(t, stream));
  }
  core::set_global_threads(0);

  // --- Counter sanity: the demo path must light up every subsystem ---------
  int missing = 0;
#if defined(AFFECTSYS_METRICS) && AFFECTSYS_METRICS
  const char* required[] = {
      "h264.nal_units",           "h264.frames_decoded",
      "h264.mbs_decoded",         "h264.residual_blocks_decoded",
      "h264.deblock_edges_examined", "h264.deblock_edges_filtered",
      "affect.samples_in",        "affect.windows_considered",
      "affect.windows_classified", "affect.inferences",
      "adaptive.selector_units_in", "adaptive.selector_units_deleted",
      "adaptive.modes_profiled",  "adaptive.playback_segments",
      "android.cold_starts",      "android.warm_starts",
      "android.kills",            "android.victim_selections",
  };
  for (const char* name : required) {
    if (reg.counter(name).value() == 0) {
      std::fprintf(stderr, "MISSING: counter %s is zero\n", name);
      ++missing;
    }
  }
#else
  std::printf("metrics disabled (AFFECTSYS_METRICS=OFF): snapshot will be "
              "empty\n");
#endif

  // --- Report --------------------------------------------------------------
  obs::JsonWriter w;
  w.begin_object();
  w.key("bench").value("observability");
  bench::write_host_info(w);
  w.key("metrics_enabled")
      .value(static_cast<bool>(
#if defined(AFFECTSYS_METRICS) && AFFECTSYS_METRICS
          true
#else
          false
#endif
          ));
  w.key("summary").begin_object();
  w.key("wall_s").value(sum.wall_s);
  w.key("decode_ns_per_frame_wall").value(sum.decode_ns_per_frame_wall);
  w.key("decode_ns_per_frame_observed")
      .value(sum.decode_ns_per_frame_observed);
  w.key("frames_decoded").value(sum.frames_decoded);
  w.key("affect_windows_per_sec").value(sum.affect_windows_per_sec);
  w.key("affect_windows").value(sum.affect_windows);
  w.key("selector_mb_per_sec").value(sum.selector_mb_per_sec);
  w.key("selector_bytes").value(sum.selector_bytes);
  w.key("full_system_s").value(sum.full_system_s);
  w.key("playback_energy_saving").value(sum.playback_energy_saving);
  w.key("app_memory_saving").value(sum.app_memory_saving);
  w.end_object();
  w.key("metrics").raw_value(reg.to_json());
  w.end_object();

  std::ofstream out(out_path);
  out << w.str() << "\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }

  // --- Parallel comparison report ------------------------------------------
  {
    const ParallelRow& serial = rows.front();
    const ParallelRow& widest = rows.back();
    obs::JsonWriter pw;
    pw.begin_object();
    pw.key("bench").value("parallel");
    bench::write_host_info(pw);
    pw.key("threads_enabled")
        .value(static_cast<bool>(
#if defined(AFFECTSYS_THREADS) && AFFECTSYS_THREADS
            true
#else
            false
#endif
            ));
    pw.key("hardware_concurrency")
        .value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    pw.key("rows").begin_array();
    for (const ParallelRow& r : rows) {
      pw.begin_object();
      pw.key("threads").value(static_cast<std::uint64_t>(r.threads));
      pw.key("decode_ns_per_frame").value(r.decode_ns_per_frame);
      pw.key("deblock_ns_per_frame").value(r.deblock_ns_per_frame);
      pw.key("gemm_gflops").value(r.gemm_gflops);
      pw.end_object();
    }
    pw.end_array();
    pw.key("speedup_vs_serial").begin_object();
    pw.key("threads").value(static_cast<std::uint64_t>(widest.threads));
    pw.key("decode").value(widest.decode_ns_per_frame > 0.0
                               ? serial.decode_ns_per_frame /
                                     widest.decode_ns_per_frame
                               : 0.0);
    pw.key("deblock").value(widest.deblock_ns_per_frame > 0.0
                                ? serial.deblock_ns_per_frame /
                                      widest.deblock_ns_per_frame
                                : 0.0);
    pw.key("gemm").value(serial.gemm_gflops > 0.0
                             ? widest.gemm_gflops / serial.gemm_gflops
                             : 0.0);
    pw.end_object();
    pw.end_object();
    std::ofstream pout(parallel_path);
    pout << pw.str() << "\n";
    pout.close();
    if (!pout) {
      std::fprintf(stderr, "failed to write %s\n", parallel_path.c_str());
      return 1;
    }
    for (const ParallelRow& r : rows) {
      std::printf("parallel[%zu threads]: decode %.0f ns/f, deblock %.0f "
                  "ns/f, %.2f GFLOP/s\n",
                  r.threads, r.decode_ns_per_frame, r.deblock_ns_per_frame,
                  r.gemm_gflops);
    }
  }

  std::printf("\ndecode:   %.0f ns/frame (wall), %.0f ns/frame (observed)\n",
              sum.decode_ns_per_frame_wall, sum.decode_ns_per_frame_observed);
  std::printf("affect:   %.1f windows/sec\n", sum.affect_windows_per_sec);
  std::printf("selector: %.1f MB/s\n", sum.selector_mb_per_sec);
  std::printf("system:   %.2f s, playback saving %.1f%%, memory saving "
              "%.1f%%\n",
              sum.full_system_s, 100.0 * sum.playback_energy_saving,
              100.0 * sum.app_memory_saving);
  std::printf("wrote %s and %s\n", out_path.c_str(), parallel_path.c_str());
  if (missing > 0) {
    std::fprintf(stderr, "%d required counters were zero\n", missing);
    return 1;
  }
  return 0;
}
