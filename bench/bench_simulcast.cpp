// Simulcast benchmark.  Four questions:
//
//   1. What does the aligned layer ladder cost to encode?  The stock
//      3-layer ladder (16/32/64 over the serve scene) is encoded
//      repeatedly; throughput is pictures/s, min-of-N, reported for the
//      full ladder and per layer.
//   2. How long does a layer switch take to land?  A lossy serve
//      session under a degrade storm exercises the selector; the worst
//      waiting-for-keyframe stretch is reported in pictures and ticks
//      and gated at under one GOP (the alignment guarantee).
//   3. What do downswitches buy on the wire?  Two transport sessions
//      run the same seed and degrade schedule — one with the layer
//      pinned to the top (shedding only via Input Selector NAL
//      deletion, the pre-simulcast behaviour), one under the default
//      switch policy — and the slice bytes handed to the packetizer
//      are compared.  Gated at >= 20% reduction.
//   4. Does everything replay?  The storm session runs twice and the
//      bench fails hard on any digest/trace/counter divergence.
//
// Dumps BENCH_simulcast.json; tools/run_verify.sh `simulcast` mode
// runs this in the Release tree and regresses wire_reduction_pct
// against the committed copy.
//
// Usage: bench_simulcast [output.json]  (default: BENCH_simulcast.json)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "fault/scenario.hpp"
#include "host_info.hpp"
#include "net/transport.hpp"
#include "obs/json.hpp"
#include "serve/session.hpp"
#include "serve/workload.hpp"
#include "simulcast/encoder.hpp"
#include "simulcast/policy.hpp"

using namespace affectsys;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kEncodeReps = 5;       // timing repetitions (min taken)
constexpr std::uint64_t kStormTicks = 80;
constexpr std::uint64_t kWireTicks = 120;

/// Serve fixtures whose workload also built the stock 3-layer clip.
const serve::SharedWorkload& sim_workload() {
  static serve::SharedWorkload w([] {
    serve::WorkloadConfig wc;
    wc.simulcast = simulcast::default_simulcast_config();
    return wc;
  }());
  return w;
}

serve::SessionEnv sim_env() {
  serve::SessionEnv env = fault::scenario_env();
  env.workload = &sim_workload();
  return env;
}

serve::SessionReport run_session(
    const serve::SessionConfig& cfg, std::uint64_t ticks,
    const std::function<int(std::uint64_t)>& level) {
  serve::Session s(1, cfg, sim_env(), /*inline_inference=*/true);
  for (std::uint64_t t = 0; t < ticks; ++t) {
    s.pump_audio(t);
    s.tick_media(t, level(t));
  }
  return s.report();
}

std::uint64_t wire_bytes(const serve::SessionReport& rep) {
  std::uint64_t total = 0;
  for (const std::uint64_t b : rep.stats.layer_bytes) total += b;
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_simulcast.json";
  const simulcast::SimulcastConfig scfg = simulcast::default_simulcast_config();

  // ---- 1. Layer-ladder encode throughput ----------------------------
  // One untimed encode supplies the layer metadata and a byte pin the
  // timed repetitions are checked against (determinism guard doubling
  // as a keep-the-work-alive sink).
  const simulcast::SimulcastClip clip = simulcast::encode_simulcast(scfg);
  const double ladder_pics =
      static_cast<double>(clip.pictures() * clip.layer_count());
  double ladder_s = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kEncodeReps; ++rep) {
    const auto t0 = Clock::now();
    const simulcast::SimulcastClip c = simulcast::encode_simulcast(scfg);
    const std::chrono::duration<double> dt = Clock::now() - t0;
    ladder_s = std::min(ladder_s, dt.count());
    for (std::size_t l = 0; l < c.layer_count(); ++l) {
      if (c.layer(l).bytes != clip.layer(l).bytes) {
        std::fprintf(stderr, "FAIL: encode not deterministic (layer %zu)\n", l);
        return 1;
      }
    }
  }
  struct LayerRow {
    int width, height;
    std::uint64_t bytes;
    double achieved_kbps, pics_per_sec;
  };
  std::vector<LayerRow> layers;
  for (std::size_t l = 0; l < clip.layer_count(); ++l) {
    simulcast::SimulcastConfig solo = scfg;
    solo.layers = {scfg.layers[l]};
    double solo_s = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kEncodeReps; ++rep) {
      const auto t0 = Clock::now();
      const simulcast::SimulcastClip c = simulcast::encode_simulcast(solo);
      const std::chrono::duration<double> dt = Clock::now() - t0;
      solo_s = std::min(solo_s, dt.count());
      if (c.layer(0).bytes != clip.layer(l).bytes) {
        std::fprintf(stderr, "FAIL: solo layer %zu encode diverged\n", l);
        return 1;
      }
    }
    const simulcast::LayerStream& s = clip.layer(l);
    layers.push_back({s.width, s.height, s.bytes, s.achieved_bps / 1000.0,
                      static_cast<double>(clip.pictures()) / solo_s});
    std::printf("encode layer %zu: %3dx%-3d %7llu B  %7.1f kbps  "
                "%7.1f pics/s\n",
                l, s.width, s.height,
                static_cast<unsigned long long>(s.bytes), layers.back().achieved_kbps,
                layers.back().pics_per_sec);
  }
  const double ladder_pps = ladder_pics / ladder_s;
  std::printf("encode ladder:  %zu layers  %7.1f pics/s\n",
              clip.layer_count(), ladder_pps);

  // ---- 2 & 4. Switch latency + replay identity ----------------------
  // A lossy transport session under a degrade storm: the policy flips
  // targets every few ticks, so the selector's waiting-for-keyframe
  // counters see real traffic.  Two runs pin replay identity.
  serve::SessionConfig storm;
  storm.seed = 11;
  storm.fault = fault::FaultConfig{41, 0.05, fault::kNetKinds};
  storm.transport = fault::net_scenario_transport(true);
  storm.transport.layers = clip.layer_count();
  storm.simulcast.enabled = true;
  const auto storm_level = [](std::uint64_t t) {
    return static_cast<int>((t / 4) % 4);
  };
  const serve::SessionReport a = run_session(storm, kStormTicks, storm_level);
  const serve::SessionReport b = run_session(storm, kStormTicks, storm_level);
  const bool replay_ok = a.decode_digest == b.decode_digest &&
                         a.layer_trace == b.layer_trace &&
                         a.stats.layer_switches == b.stats.layer_switches &&
                         wire_bytes(a) == wire_bytes(b);
  std::printf("replay identity: %s\n", replay_ok ? "PASS" : "FAIL");

  const simulcast::LayerSelectorStats& sel = a.layer_selector;
  const double pics_per_tick = storm.fps * storm.tick_s;
  const double mean_wait =
      sel.switches_completed
          ? static_cast<double>(sel.pictures_waited) /
                static_cast<double>(sel.switches_completed)
          : 0.0;
  const double max_wait_ticks =
      static_cast<double>(sel.max_wait_pictures) / pics_per_tick;
  std::printf("switching:      %llu completed  wait mean %.2f max %llu pics "
              "(%.2f ticks, gop %d)\n",
              static_cast<unsigned long long>(sel.switches_completed),
              mean_wait,
              static_cast<unsigned long long>(sel.max_wait_pictures),
              max_wait_ticks, scfg.gop_frames);

  // ---- 3. Bytes on the wire: downswitch vs deletion-only ------------
  // Same seed, same degrade schedule (cycling 0/1/2 — never the shed
  // level, so every byte difference is adaptation, not dropped work).
  // The pinned run keeps the top layer forever: its only shedding tool
  // is sender-side NAL deletion, i.e. the pre-simulcast behaviour at
  // top-layer quality.
  serve::SessionConfig wire;
  wire.seed = 17;
  wire.transport = fault::net_scenario_transport(true);
  wire.transport.layers = clip.layer_count();
  wire.simulcast.enabled = true;
  serve::SessionConfig pinned = wire;
  pinned.simulcast.use_default_policy = false;
  pinned.simulcast.policy.default_target = clip.layer_count() - 1;
  const auto wire_level = [](std::uint64_t t) {
    return static_cast<int>((t / 8) % 3);
  };
  const serve::SessionReport dyn = run_session(wire, kWireTicks, wire_level);
  const serve::SessionReport pin = run_session(pinned, kWireTicks, wire_level);
  const std::uint64_t dyn_bytes = wire_bytes(dyn);
  const std::uint64_t pin_bytes = wire_bytes(pin);
  const double reduction_pct =
      pin_bytes ? (1.0 - static_cast<double>(dyn_bytes) /
                             static_cast<double>(pin_bytes)) *
                      100.0
                : 0.0;
  std::printf("wire bytes:     deletion-only %llu  switching %llu  "
              "reduction %.1f%%\n",
              static_cast<unsigned long long>(pin_bytes),
              static_cast<unsigned long long>(dyn_bytes), reduction_pct);

  obs::JsonWriter w;
  w.begin_object();
  w.key("bench").value("simulcast");
  bench::write_host_info(w);
  w.key("encode").begin_object();
  w.key("ladder_pics_per_sec").value(ladder_pps);
  w.key("layers").begin_array();
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const LayerRow& row = layers[l];
    w.begin_object();
    w.key("layer").value(static_cast<std::uint64_t>(l));
    w.key("width").value(static_cast<std::uint64_t>(row.width));
    w.key("height").value(static_cast<std::uint64_t>(row.height));
    w.key("bytes").value(row.bytes);
    w.key("achieved_kbps").value(row.achieved_kbps);
    w.key("pics_per_sec").value(row.pics_per_sec);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("switching").begin_object();
  w.key("switches_completed").value(sel.switches_completed);
  w.key("mean_wait_pictures").value(mean_wait);
  w.key("max_wait_pictures").value(sel.max_wait_pictures);
  w.key("max_wait_ticks").value(max_wait_ticks);
  w.key("gop_frames").value(static_cast<std::uint64_t>(scfg.gop_frames));
  w.end_object();
  w.key("wire").begin_object();
  w.key("deletion_only_bytes").value(pin_bytes);
  w.key("simulcast_bytes").value(dyn_bytes);
  w.key("wire_reduction_pct").value(reduction_pct);
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
  // ISSUE 9 gates: a switch must land within one GOP of the request
  // (the alignment guarantee), and policy-driven downswitching must
  // save >= 20% of wire bytes over deletion-only shedding at the same
  // emotion script and pressure schedule.
  if (sel.switches_completed == 0 ||
      sel.max_wait_pictures >= static_cast<std::uint64_t>(scfg.gop_frames)) {
    std::fprintf(stderr,
                 "FAIL: switch latency %llu pics breaches the 1-GOP bound "
                 "(%d) or no switches ran\n",
                 static_cast<unsigned long long>(sel.max_wait_pictures),
                 scfg.gop_frames);
    return 1;
  }
  if (reduction_pct < 20.0) {
    std::fprintf(stderr,
                 "FAIL: wire reduction %.1f%% below the 20%% gate\n",
                 reduction_pct);
    return 1;
  }
  return 0;
}
