// Media-transport benchmark.  Four questions:
//
//   1. How fast do the packetizer and depacketizer move bytes?  The
//      reference clip is framed and reassembled repeatedly; throughput
//      is payload MB/s, min-of-N.
//   2. How much of the seeded loss does XOR-parity FEC buy back?  A
//      loss-rate sweep (1/2/5/10 %) streams the clip through a faulted
//      TransportLink and reports recovered/dropped per rate.
//   3. What does the transport pipeline cost a serving tick when the
//      channel is perfect?  A transport-fed session is timed against
//      the in-process session on the same script — after a hard
//      decode-digest identity check — and gated at <= 5% overhead.
//   4. Does everything replay?  Each net scenario runs twice and the
//      bench fails hard on any divergence.
//
// Dumps BENCH_net.json; tools/run_verify.sh `net` mode runs this in the
// Release tree and regresses serve_tick_overhead_pct against the
// committed copy.
//
// Usage: bench_net [output.json]   (default: BENCH_net.json)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "fault/scenario.hpp"
#include "h264/nal.hpp"
#include "host_info.hpp"
#include "net/packetizer.hpp"
#include "net/transport.hpp"
#include "obs/json.hpp"
#include "serve/session.hpp"

using namespace affectsys;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kReps = 15;       // timing repetitions (min taken)
constexpr int kFrameIters = 40; // clip framings per repetition
constexpr std::uint64_t kServeTicks = 40;

/// The clip split into access units (params units ride with their
/// slice), matching how the serve path feeds the packetizer.
std::vector<std::vector<h264::NalUnit>> clip_access_units() {
  const std::vector<h264::NalUnit> units =
      h264::unpack_annexb(fault::scenario_reference_stream());
  std::vector<std::vector<h264::NalUnit>> aus;
  std::vector<h264::NalUnit> au;
  for (const h264::NalUnit& u : units) {
    const bool slice = h264::is_slice(u);
    au.push_back(u);
    if (slice) {
      aus.push_back(std::move(au));
      au.clear();
    }
  }
  if (!au.empty()) aus.push_back(std::move(au));
  return aus;
}

/// Streams the clip twice through a faulted link (as in test_net's
/// end-to-end sweep) and accumulates channel/recovery counters.
void run_loss_pass(std::uint64_t seed, double rate,
                   std::uint64_t* dropped, std::uint64_t* recovered,
                   std::uint64_t* loss_events) {
  fault::FaultPlan plan(fault::FaultConfig{
      seed, rate, fault::kind_bit(fault::FaultKind::kPacketLoss)});
  net::TransportLink link(fault::net_scenario_transport(true), &plan,
                          nullptr);
  const auto aus = clip_access_units();
  std::uint64_t tick = 0;
  std::uint32_t ts = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& au : aus) {
      link.send(au, ts++, 0, tick);
      link.receive(tick);
      ++tick;
    }
  }
  for (int extra = 0; extra < 64 && !link.idle(); ++extra) {
    link.receive(tick++);
  }
  link.receive(tick + 8);
  *dropped += link.channel_stats().dropped_data;
  *recovered += link.stats().packets_recovered;
  *loss_events += link.stats().loss_events;
}

/// Seconds for kServeTicks session ticks under `cfg`, one repetition.
double serve_rep(const serve::SessionConfig& cfg,
                 const serve::SessionEnv& env, std::uint64_t* digest) {
  serve::Session s(1, cfg, env, /*inline_inference=*/true);
  const auto t0 = Clock::now();
  for (std::uint64_t t = 0; t < kServeTicks; ++t) {
    s.pump_audio(t);
    s.tick_media(t, /*degrade_level=*/0);
  }
  const std::chrono::duration<double> dt = Clock::now() - t0;
  *digest = s.report().decode_digest;
  return dt.count();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_net.json";

  const auto aus = clip_access_units();
  double payload_bytes = 0;
  std::size_t total_nals = 0;
  for (const auto& au : aus) {
    total_nals += au.size();
    for (const auto& u : au) payload_bytes += static_cast<double>(u.payload.size());
  }
  const net::PacketizerConfig pcfg = fault::net_scenario_transport(true).packetizer;

  // ---- 1. Packetize / depacketize throughput ------------------------
  // Pre-frame the clip once for the depacketizer side so reassembly is
  // timed alone; a round-trip identity check guards the timed code.
  std::vector<net::Released> framed;
  {
    net::Packetizer pk(pcfg);
    for (std::size_t i = 0; i < aus.size(); ++i) {
      for (auto& p : pk.packetize(aus[i], static_cast<std::uint32_t>(i), 0)) {
        framed.push_back(net::Released{false, p.seq, std::move(p)});
      }
    }
    net::Depacketizer dp;
    const auto events = dp.push(framed);
    if (events.size() != total_nals || dp.stats().loss_events != 0) {
      std::fprintf(stderr, "FAIL: clean round trip lost NALs (%zu of %zu)\n",
                   events.size(), total_nals);
      return 1;
    }
    for (std::size_t i = 0, k = 0; i < aus.size(); ++i) {
      for (const auto& u : aus[i]) {
        if (events[k].loss || events[k].nal.nal.payload != u.payload) {
          std::fprintf(stderr, "FAIL: round-trip payload mismatch\n");
          return 1;
        }
        ++k;
      }
    }
  }
  double pack_s = std::numeric_limits<double>::infinity();
  double depack_s = std::numeric_limits<double>::infinity();
  std::uint64_t packets = 0;
  for (int rep = -1; rep < kReps; ++rep) {  // rep -1 is untimed warmup
    auto t0 = Clock::now();
    packets = 0;
    for (int it = 0; it < kFrameIters; ++it) {
      net::Packetizer pk(pcfg);
      for (std::size_t i = 0; i < aus.size(); ++i) {
        packets += pk.packetize(aus[i], static_cast<std::uint32_t>(i), 0).size();
      }
    }
    std::chrono::duration<double> dt = Clock::now() - t0;
    if (rep >= 0) pack_s = std::min(pack_s, dt.count());

    t0 = Clock::now();
    std::uint64_t nals_out = 0;
    for (int it = 0; it < kFrameIters; ++it) {
      net::Depacketizer dp;
      nals_out += dp.push(framed).size();
    }
    dt = Clock::now() - t0;
    if (rep >= 0) depack_s = std::min(depack_s, dt.count());
    if (nals_out != static_cast<std::uint64_t>(total_nals) * kFrameIters) {
      std::fprintf(stderr, "FAIL: depacketizer dropped NALs while timed\n");
      return 1;
    }
  }
  const double mb = payload_bytes * kFrameIters / (1024.0 * 1024.0);
  const double pack_mbs = mb / pack_s;
  const double depack_mbs = mb / depack_s;
  std::printf("framing:      packetize %6.2f MB/s  depacketize %6.2f MB/s  "
              "(%llu packets/clip)\n",
              pack_mbs, depack_mbs,
              static_cast<unsigned long long>(packets / kFrameIters));

  // ---- 2. FEC recovery vs loss rate ---------------------------------
  struct RecoveryRow {
    double loss_pct, rate;
    std::uint64_t dropped, recovered, loss_events;
  };
  std::vector<RecoveryRow> recovery;
  for (const double pct : {1.0, 2.0, 5.0, 10.0}) {
    RecoveryRow row{pct, 0.0, 0, 0, 0};
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      run_loss_pass(seed, pct / 100.0, &row.dropped, &row.recovered,
                    &row.loss_events);
    }
    row.rate = row.dropped
                   ? static_cast<double>(row.recovered) /
                         static_cast<double>(row.dropped)
                   : 1.0;
    std::printf("fec @ %5.1f%% loss: %4llu dropped  %4llu recovered "
                "(%.0f%%)  %llu residual losses\n",
                pct, static_cast<unsigned long long>(row.dropped),
                static_cast<unsigned long long>(row.recovered),
                row.rate * 100.0,
                static_cast<unsigned long long>(row.loss_events));
    recovery.push_back(row);
  }

  // ---- 3. Serve-tick overhead at 0% loss ----------------------------
  // Hard identity first: on a perfect channel the transport-fed session
  // must reproduce the in-process decode digest exactly.
  const serve::SessionEnv env = fault::scenario_env();
  serve::SessionConfig base;
  base.seed = 5;
  serve::SessionConfig piped = base;
  piped.transport = fault::net_scenario_transport(true);
  std::uint64_t base_digest = 0, piped_digest = 0;
  serve_rep(base, env, &base_digest);    // also the warmup
  serve_rep(piped, env, &piped_digest);
  if (base_digest != piped_digest) {
    std::fprintf(stderr, "FAIL: 0-loss transport decode digest diverged\n");
    return 1;
  }
  double base_s = std::numeric_limits<double>::infinity();
  double piped_s = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kReps; ++rep) {
    base_s = std::min(base_s, serve_rep(base, env, &base_digest));
    piped_s = std::min(piped_s, serve_rep(piped, env, &piped_digest));
  }
  const double tick_overhead_pct = (piped_s / base_s - 1.0) * 100.0;
  std::printf("serve tick:   in-process %.3f ms  transport %.3f ms  "
              "overhead %+.2f%%\n",
              base_s * 1e3 / static_cast<double>(kServeTicks),
              piped_s * 1e3 / static_cast<double>(kServeTicks),
              tick_overhead_pct);

  // ---- 4. Replay identity -------------------------------------------
  bool replay_ok = true;
  for (const bool fec : {false, true}) {
    fault::ScenarioConfig cfg{7, 0.1, fault::kNetKinds};
    const auto tcfg = fault::net_scenario_transport(fec);
    replay_ok = replay_ok && fault::run_net_scenario(cfg, tcfg) ==
                                 fault::run_net_scenario(cfg, tcfg);
  }
  std::printf("replay identity: %s\n", replay_ok ? "PASS" : "FAIL");

  obs::JsonWriter w;
  w.begin_object();
  w.key("bench").value("net");
  bench::write_host_info(w);
  w.key("framing").begin_object();
  w.key("packetize_mb_per_sec").value(pack_mbs);
  w.key("depacketize_mb_per_sec").value(depack_mbs);
  w.key("packets_per_clip").value(packets / kFrameIters);
  w.key("nals_per_clip").value(static_cast<std::uint64_t>(total_nals));
  w.end_object();
  w.key("fec_recovery").begin_array();
  for (const RecoveryRow& row : recovery) {
    w.begin_object();
    w.key("loss_pct").value(row.loss_pct);
    w.key("dropped").value(row.dropped);
    w.key("recovered").value(row.recovered);
    w.key("recovery_rate").value(row.rate);
    w.key("residual_loss_events").value(row.loss_events);
    w.end_object();
  }
  w.end_array();
  w.key("serve_tick").begin_object();
  w.key("in_process_ms_per_tick")
      .value(base_s * 1e3 / static_cast<double>(kServeTicks));
  w.key("transport_ms_per_tick")
      .value(piped_s * 1e3 / static_cast<double>(kServeTicks));
  w.key("serve_tick_overhead_pct").value(tick_overhead_pct);
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
  // ISSUE 6 gate: transport plumbing may cost a perfect-channel tick at
  // most 5% over the in-process path.
  if (tick_overhead_pct > 5.0) {
    std::fprintf(stderr,
                 "FAIL: serve-tick transport overhead %.2f%% exceeds 5%%\n",
                 tick_overhead_pct);
    return 1;
  }
  return 0;
}
