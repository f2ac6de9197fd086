// Fault-layer cost and recovery benchmark.  Three questions:
//
//   1. What does the recovery plumbing cost when nothing faults?  The
//      clean path (resilient decoder behind a disabled FaultPlan) is
//      timed against the un-instrumented strict decoder on the same
//      stream — after a hard byte-identity check.  The paper-level
//      budget is < 1% decode-throughput cost; the gate here is 2% to
//      leave room for timer noise.  The two sides alternate decode by
//      decode (a few milliseconds each) and the gate compares their
//      summed times, so host load, which drifts over seconds, reaches
//      both alike.  Both sides decode on the calling thread (pool off):
//      the test pictures are small enough that deblocking's pool
//      hand-off would swamp the difference being measured.
//   2. What does decoding cost while faults fire and the decoder
//      resyncs?  Faulted streams (rate 0.1) through the resilient
//      decoder, reported as throughput plus recovery counters, and as
//      a ratio to clean strict decodes interleaved with them
//      (faulted.vs_clean), which load on the host moves far less.
//   3. Does everything replay?  Each scenario suite runs twice and the
//      bench fails hard on any digest divergence.
//
// Dumps BENCH_fault.json; tools/run_verify.sh `fault` mode runs this in
// the Release tree and soft-checks faulted.vs_clean against the
// committed copy.
//
// Usage: bench_fault [output.json]   (default: BENCH_fault.json)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <limits>
#include <string>
#include <vector>

#include "core/thread_pool.hpp"
#include "fault/bitstream_faults.hpp"
#include "fault/plan.hpp"
#include "fault/scenario.hpp"
#include "h264/decoder.hpp"
#include "host_info.hpp"
#include "obs/json.hpp"

using namespace affectsys;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kReps = 15;  ///< faulted-path repetitions
/// Clean-path decodes a side, alternating with the other side's.
constexpr int kCleanDecodes = 1000;

/// Seconds for one decode of `stream` under `cfg`.
double timed_decode(const h264::DecoderConfig& cfg,
                    std::span<const std::uint8_t> stream) {
  const auto t0 = Clock::now();
  {
    h264::Decoder dec(cfg);
    if (dec.decode_annexb(stream).empty()) {
      std::fprintf(stderr, "FAIL: timed decode produced no pictures\n");
      std::exit(1);
    }
  }
  const std::chrono::duration<double> dt = Clock::now() - t0;
  return dt.count();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_fault.json";

  const std::span<const std::uint8_t> stream =
      fault::scenario_reference_stream();
  const h264::DecoderConfig strict_cfg{true, /*resilient=*/false};
  const h264::DecoderConfig resilient_cfg{true, /*resilient=*/true};

  // ---- Hard identity checks before any timing is trusted ------------
  // Rate-0 instrumented path must be byte-identical to the clean path.
  fault::FaultPlan disabled(fault::FaultConfig{1, 0.0, fault::kAllKinds});
  fault::FaultCounts counts;
  const std::vector<std::uint8_t> injected =
      fault::inject_annexb_faults(stream, disabled, counts);
  if (!std::equal(injected.begin(), injected.end(), stream.begin(),
                  stream.end()) ||
      counts.total != 0) {
    std::fprintf(stderr, "FAIL: rate-0 injection altered the stream\n");
    return 1;
  }
  {
    h264::Decoder strict(strict_cfg);
    h264::Decoder resilient(resilient_cfg);
    const auto a = strict.decode_annexb(stream);
    const auto b = resilient.decode_annexb(injected);
    if (fault::digest_pictures(a) != fault::digest_pictures(b)) {
      std::fprintf(stderr,
                   "FAIL: rate-0 resilient decode not byte-identical\n");
      return 1;
    }
  }

  // ---- 1. Clean-path overhead ---------------------------------------
  // Decode by decode, alternating which side goes first, each side
  // summing its own decode times.  The pool is off throughout, so the
  // gate (and section 2) times the decoder, not thread hand-off.
  const std::size_t threads = core::global_threads();
  core::set_global_threads(0);
  double strict_s = 0.0;
  double clean_s = 0.0;
  timed_decode(strict_cfg, stream);  // warmup, untimed
  timed_decode(resilient_cfg, injected);
  for (int i = 0; i < kCleanDecodes; ++i) {
    if (i % 2 == 0) {
      strict_s += timed_decode(strict_cfg, stream);
      clean_s += timed_decode(resilient_cfg, injected);
    } else {
      clean_s += timed_decode(resilient_cfg, injected);
      strict_s += timed_decode(strict_cfg, stream);
    }
  }
  const double overhead_pct = (clean_s / strict_s - 1.0) * 100.0;
  const double stream_mb =
      static_cast<double>(stream.size()) / (1024.0 * 1024.0);
  const double strict_mbs = stream_mb * kCleanDecodes / strict_s;
  const double clean_mbs = stream_mb * kCleanDecodes / clean_s;
  std::printf("clean path:   strict %6.2f MB/s  resilient+plan %6.2f MB/s  "
              "overhead %+.2f%% (%d interleaved decodes a side)\n",
              strict_mbs, clean_mbs, overhead_pct, kCleanDecodes);

  // ---- 2. Faulted recovery throughput -------------------------------
  // Pre-generate faulted streams so injection stays outside the timed
  // region, then decode them all; throughput covers error unwinding,
  // resync skips and keyframe recovery.
  std::vector<std::vector<std::uint8_t>> faulted;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    fault::FaultPlan plan(
        fault::FaultConfig{seed, 0.1, fault::kBitstreamKinds});
    fault::FaultCounts fc;
    faulted.push_back(fault::inject_annexb_faults(stream, plan, fc));
  }
  // Each faulted decode alternates with a strict decode of the clean
  // stream, the reference its throughput is reported against.
  std::uint64_t nal_errors = 0, resyncs = 0, pictures = 0;
  double faulted_best = std::numeric_limits<double>::infinity();
  double faulted_bytes = 0;
  for (const auto& s : faulted) faulted_bytes += static_cast<double>(s.size());
  const double clean_bytes =
      static_cast<double>(stream.size()) * static_cast<double>(faulted.size());
  std::vector<double> vs_clean;
  for (int rep = 0; rep < kReps; ++rep) {
    nal_errors = resyncs = pictures = 0;
    double faulted_s = 0.0;
    double reference_s = 0.0;
    for (const auto& s : faulted) {
      auto t0 = Clock::now();
      {
        h264::Decoder dec(resilient_cfg);
        pictures += dec.decode_annexb(s).size();
        nal_errors += dec.activity().nal_errors;
        resyncs += dec.activity().resyncs;
      }
      std::chrono::duration<double> dt = Clock::now() - t0;
      faulted_s += dt.count();
      reference_s += timed_decode(strict_cfg, stream);
    }
    faulted_best = std::min(faulted_best, faulted_s);
    vs_clean.push_back((faulted_bytes / faulted_s) /
                       (clean_bytes / reference_s));
  }
  core::set_global_threads(threads);
  std::nth_element(vs_clean.begin(), vs_clean.begin() + vs_clean.size() / 2,
                   vs_clean.end());
  const double faulted_vs_clean = vs_clean[vs_clean.size() / 2];
  const double faulted_mbs =
      faulted_bytes / (1024.0 * 1024.0) / faulted_best;
  std::printf("faulted path: %6.2f MB/s over %zu streams, %.3fx clean strict "
              "decode (%llu errors, %llu resyncs, %llu pictures)\n",
              faulted_mbs, faulted.size(), faulted_vs_clean,
              static_cast<unsigned long long>(nal_errors),
              static_cast<unsigned long long>(resyncs),
              static_cast<unsigned long long>(pictures));

  // ---- 3. Replay identity across the suites -------------------------
  bool replay_ok = true;
  {
    const fault::ScenarioConfig cfg{7, 0.1, fault::kAllKinds};
    replay_ok = replay_ok && fault::run_bitstream_scenario(cfg) ==
                                 fault::run_bitstream_scenario(cfg);
    replay_ok = replay_ok && fault::run_audio_scenario(cfg) ==
                                 fault::run_audio_scenario(cfg);
    replay_ok = replay_ok && fault::run_serve_scenario(cfg) ==
                                 fault::run_serve_scenario(cfg);
  }
  std::printf("replay identity: %s\n", replay_ok ? "PASS" : "FAIL");

  obs::JsonWriter w;
  w.begin_object();
  w.key("bench").value("fault");
  bench::write_host_info(w);
  w.key("clean").begin_object();
  w.key("strict_mb_per_sec").value(strict_mbs);
  w.key("resilient_rate0_mb_per_sec").value(clean_mbs);
  w.key("clean_overhead_pct").value(overhead_pct);
  w.end_object();
  w.key("faulted").begin_object();
  w.key("mb_per_sec").value(faulted_mbs);
  w.key("vs_clean").value(faulted_vs_clean);
  w.key("streams").value(static_cast<std::uint64_t>(faulted.size()));
  w.key("nal_errors").value(nal_errors);
  w.key("resyncs").value(resyncs);
  w.key("pictures").value(pictures);
  w.end_object();
  w.key("replay_identical").value(replay_ok);
  w.end_object();

  std::ofstream out(out_path);
  out << w.str() << "\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());

  if (!replay_ok) {
    std::fprintf(stderr, "FAIL: replay divergence\n");
    return 1;
  }
  // 2x the documented 1% budget, as noise headroom for CI machines.
  if (overhead_pct > 2.0) {
    std::fprintf(stderr,
                 "FAIL: clean-path fault overhead %.2f%% exceeds 2%%\n",
                 overhead_pct);
    return 1;
  }
  return 0;
}
