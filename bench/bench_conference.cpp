// Conference benchmark.  Four questions:
//
//   1. What does active-speaker multiplexing buy on the wire?  An
//      8-speaker room under the conference policy (dominant at the top
//      rung, recent mid, idle bottom) vs the same 8 sessions all pinned
//      to the top layer, equal seeds and emotion scripts.  Gated at
//      >= 30% wire-byte reduction.
//   2. How fast does the floor move?  The room run's worst
//      waiting-for-keyframe stretch across members is gated under one
//      GOP, with at least one completed layer switch and at least one
//      dominance move as evidence the machinery ran.
//   3. Does a lossy room replay?  An 8-speaker room with seeded packet
//      loss runs twice; the bench fails hard on any divergence in
//      digests, layer traces, transport counters or the speaker_trace.
//   4. Is a K=1 room really a plain session?  Digest + trace identity
//      between a one-member room and the same session outside any room.
//
// Dumps BENCH_conference.json; tools/run_verify.sh `conference` runs
// this in the Release tree and regresses wire_reduction_pct against the
// committed copy.
//
// Usage: bench_conference [output.json]  (default: BENCH_conference.json)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "conf/room.hpp"
#include "fault/plan.hpp"
#include "fault/scenario.hpp"
#include "host_info.hpp"
#include "obs/json.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve/workload.hpp"
#include "simulcast/encoder.hpp"

using namespace affectsys;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kSpeakers = 8;
constexpr std::uint64_t kTicks = 200;
constexpr std::uint64_t kLossyTicks = 140;

const serve::SharedWorkload& conf_workload() {
  static serve::SharedWorkload w([] {
    serve::WorkloadConfig wc;
    wc.simulcast = simulcast::default_simulcast_config();
    return wc;
  }());
  return w;
}

serve::SessionEnv conf_env() {
  serve::SessionEnv env = fault::scenario_env();
  env.workload = &conf_workload();
  return env;
}

/// Wide watermarks: the comparison isolates ROLE-driven byte savings,
/// so the backlog degrade ladder must not fire.
serve::ServerConfig server_config() {
  serve::ServerConfig cfg;
  cfg.max_sessions = 16;
  cfg.backlog_hi = 1000;
  cfg.backlog_lo = 500;
  return cfg;
}

serve::SessionConfig member_config(unsigned seed) {
  serve::SessionConfig cfg;
  cfg.seed = seed;
  cfg.simulcast.enabled = true;
  cfg.transport = fault::net_scenario_transport(true);
  cfg.transport.layers = 3;
  return cfg;
}

std::uint64_t wire_bytes(const serve::SessionReport& rep) {
  std::uint64_t total = 0;
  for (const std::uint64_t b : rep.stats.layer_bytes) total += b;
  return total;
}

struct RoomRun {
  std::vector<serve::SessionReport> reports;
  conf::RoomReport room;
  double ticks_per_sec = 0.0;
};

/// One 8-speaker room run; loss_rate > 0 adds a seeded kNetKinds plan
/// per member.
RoomRun run_room(std::uint64_t ticks, double loss_rate) {
  serve::SessionManager mgr(server_config(), conf_env());
  const conf::RoomId room = mgr.create_room();
  std::vector<serve::SessionId> ids;
  for (unsigned i = 0; i < kSpeakers; ++i) {
    serve::SessionConfig cfg = member_config(101 + i);
    if (loss_rate > 0.0) {
      cfg.fault = fault::FaultConfig{101 + i * 7, loss_rate, fault::kNetKinds};
    }
    ids.push_back(mgr.create_session(cfg, room));
  }
  const auto t0 = Clock::now();
  for (std::uint64_t t = 0; t < ticks; ++t) mgr.tick();
  const std::chrono::duration<double> dt = Clock::now() - t0;
  mgr.drain();
  RoomRun out;
  for (const serve::SessionId id : ids) out.reports.push_back(mgr.report(id));
  out.room = mgr.room_report(room);
  out.ticks_per_sec = static_cast<double>(ticks) / dt.count();
  return out;
}

/// The same 8 sessions with no room and the top layer pinned — every
/// speaker ships full quality all the time (the pre-conference wire).
std::uint64_t run_all_top(std::uint64_t ticks) {
  serve::SessionManager mgr(server_config(), conf_env());
  std::vector<serve::SessionId> ids;
  for (unsigned i = 0; i < kSpeakers; ++i) {
    serve::SessionConfig cfg = member_config(101 + i);
    cfg.simulcast.use_default_policy = false;
    cfg.simulcast.policy.default_target = 2;
    ids.push_back(mgr.create_session(cfg));
  }
  for (std::uint64_t t = 0; t < ticks; ++t) mgr.tick();
  mgr.drain();
  std::uint64_t total = 0;
  for (const serve::SessionId id : ids) total += wire_bytes(mgr.report(id));
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_conference.json";
  const int gop = conf_workload().config().simulcast.gop_frames;

  // ---- 1 & 2. Wire economy + floor-move latency ---------------------
  const RoomRun room = run_room(kTicks, 0.0);
  std::uint64_t room_bytes = 0, layer_switches = 0, max_wait = 0;
  for (const serve::SessionReport& rep : room.reports) {
    room_bytes += wire_bytes(rep);
    layer_switches += rep.stats.layer_switches;
    if (rep.layer_selector.max_wait_pictures > max_wait) {
      max_wait = rep.layer_selector.max_wait_pictures;
    }
  }
  const std::uint64_t top_bytes = run_all_top(kTicks);
  const double reduction_pct =
      top_bytes ? (1.0 - static_cast<double>(room_bytes) /
                             static_cast<double>(top_bytes)) *
                      100.0
                : 0.0;
  std::printf("wire bytes:     all-top %llu  conference %llu  "
              "reduction %.1f%%\n",
              static_cast<unsigned long long>(top_bytes),
              static_cast<unsigned long long>(room_bytes), reduction_pct);
  std::printf("switching:      %llu speaker moves  %llu layer switches  "
              "max wait %llu pics (gop %d)\n",
              static_cast<unsigned long long>(room.room.speaker_switches),
              static_cast<unsigned long long>(layer_switches),
              static_cast<unsigned long long>(max_wait), gop);
  std::printf("room ticks/s:   %.1f (%zu speakers)\n", room.ticks_per_sec,
              kSpeakers);

  // ---- 3. Lossy replay identity -------------------------------------
  const RoomRun a = run_room(kLossyTicks, 0.05);
  const RoomRun b = run_room(kLossyTicks, 0.05);
  bool replay_ok = a.room == b.room;
  std::uint64_t lost = 0;
  for (std::size_t i = 0; i < a.reports.size() && replay_ok; ++i) {
    const serve::SessionReport& ra = a.reports[i];
    const serve::SessionReport& rb = b.reports[i];
    replay_ok = ra.session_id == rb.session_id &&
                ra.decode_digest == rb.decode_digest &&
                ra.layer_trace == rb.layer_trace &&
                ra.stats.packets_lost == rb.stats.packets_lost &&
                ra.stats.layer_bytes == rb.stats.layer_bytes;
    lost += ra.stats.packets_lost;
  }
  replay_ok = replay_ok && lost > 0;  // the loss plan actually fired
  std::printf("lossy replay:   %s (%llu packets lost)\n",
              replay_ok ? "PASS" : "FAIL",
              static_cast<unsigned long long>(lost));

  // ---- 4. K=1 room == plain session ---------------------------------
  bool k1_ok = false;
  {
    const serve::SessionConfig cfg = member_config(55);
    serve::SessionManager plain(server_config(), conf_env());
    const serve::SessionId pid = plain.create_session(cfg);
    serve::SessionManager roomed(server_config(), conf_env());
    const serve::SessionId rid =
        roomed.create_session(cfg, roomed.create_room());
    for (std::uint64_t t = 0; t < 100; ++t) {
      plain.tick();
      roomed.tick();
    }
    plain.drain();
    roomed.drain();
    const serve::SessionReport p = plain.report(pid);
    const serve::SessionReport r = roomed.report(rid);
    k1_ok = p.decode_digest == r.decode_digest &&
            p.layer_trace == r.layer_trace &&
            p.stats.layer_bytes == r.stats.layer_bytes;
  }
  std::printf("k=1 identity:   %s\n", k1_ok ? "PASS" : "FAIL");

  obs::JsonWriter w;
  w.begin_object();
  w.key("bench").value("conference");
  bench::write_host_info(w);
  w.key("wire").begin_object();
  w.key("speakers").value(static_cast<std::uint64_t>(kSpeakers));
  w.key("all_top_bytes").value(top_bytes);
  w.key("conference_bytes").value(room_bytes);
  w.key("wire_reduction_pct").value(reduction_pct);
  w.end_object();
  w.key("switching").begin_object();
  w.key("speaker_switches").value(room.room.speaker_switches);
  w.key("layer_switches").value(layer_switches);
  w.key("max_wait_pictures").value(max_wait);
  w.key("gop_frames").value(static_cast<std::uint64_t>(gop));
  w.end_object();
  w.key("room_ticks_per_sec").value(room.ticks_per_sec);
  w.key("lossy_replay_identical").value(replay_ok);
  w.key("k1_identical").value(k1_ok);
  w.end_object();

  std::ofstream out(out_path);
  out << w.str() << "\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());

  // ISSUE 10 gates.
  if (!replay_ok) {
    std::fprintf(stderr, "FAIL: lossy room replay divergence\n");
    return 1;
  }
  if (!k1_ok) {
    std::fprintf(stderr, "FAIL: K=1 room diverged from a plain session\n");
    return 1;
  }
  if (room.room.speaker_switches == 0 || layer_switches == 0 ||
      max_wait >= static_cast<std::uint64_t>(gop)) {
    std::fprintf(stderr,
                 "FAIL: speaker-switch latency %llu pics breaches the 1-GOP "
                 "bound (%d) or the floor never moved\n",
                 static_cast<unsigned long long>(max_wait), gop);
    return 1;
  }
  if (reduction_pct < 30.0) {
    std::fprintf(stderr, "FAIL: wire reduction %.1f%% below the 30%% gate\n",
                 reduction_pct);
    return 1;
  }
  return 0;
}
