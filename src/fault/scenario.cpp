#include "fault/scenario.hpp"

#include <cmath>
#include <cstring>

#include "affect/classifier.hpp"
#include "affect/realtime.hpp"
#include "affect/speech_synth.hpp"
#include "android/catalog.hpp"
#include "android/personality.hpp"
#include "core/affect_table.hpp"
#include "fault/audio_faults.hpp"
#include "fault/bitstream_faults.hpp"
#include "h264/encoder.hpp"
#include "h264/testvideo.hpp"
#include "nn/model.hpp"
#include "serve/server.hpp"

namespace affectsys::fault {

namespace {

/// Process-lifetime fixtures shared by every scenario run: synthesis
/// and training are the expensive parts and both are deterministic, so
/// building them once changes nothing about replay identity.
struct ScenarioWorld {
  serve::SharedWorkload workload;
  affect::AffectClassifier classifier;
  std::vector<android::App> catalog;
  core::AppAffectTable table;
  std::vector<std::uint8_t> clip;

  ScenarioWorld()
      : workload(serve::WorkloadConfig{}),
        classifier([] {
          affect::CorpusProfile prof;
          prof.name = "fault";
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
    const h264::VideoConfig vc{64, 64, 12, 1.0, 0.5, 1.0, 5};
    h264::Encoder enc(h264::EncoderConfig{64, 64, 26, 12, 2, 4});
    clip = enc.encode_annexb(h264::generate_test_video(vc));
  }
};

ScenarioWorld& world() {
  static ScenarioWorld w;
  return w;
}

void fnv_mix(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
}

/// Scripted capture audio: the session fill_chunk logic, flattened.
std::vector<double> make_scenario_audio(double seconds) {
  const serve::SharedWorkload& wl = world().workload;
  const double rate = wl.config().sample_rate_hz;
  const auto script = wl.make_script(/*seed=*/42, /*segments=*/8);
  std::vector<double> out(static_cast<std::size_t>(seconds * rate));
  std::size_t idx = 0;
  std::size_t offset = 0;
  for (double& sample : out) {
    const serve::ScriptSegment* seg = &script[idx];
    auto speech_n = static_cast<std::size_t>(seg->speech_s * rate);
    auto total_n = speech_n + static_cast<std::size_t>(seg->silence_s * rate);
    while (offset >= total_n) {
      offset = 0;
      idx = (idx + 1) % script.size();
      seg = &script[idx];
      speech_n = static_cast<std::size_t>(seg->speech_s * rate);
      total_n = speech_n + static_cast<std::size_t>(seg->silence_s * rate);
    }
    if (offset < speech_n) {
      const std::span<const double> utt = wl.utterance(seg->emotion);
      sample = utt[offset % utt.size()];
    } else {
      sample = 0.0;
    }
    ++offset;
  }
  return out;
}

}  // namespace

std::uint64_t fnv1a_bytes(std::span<const std::uint8_t> bytes,
                          std::uint64_t h) {
  fnv_mix(h, bytes.data(), bytes.size());
  return h;
}

std::uint64_t digest_pictures(std::span<const h264::DecodedPicture> pics,
                              std::uint64_t h) {
  for (const h264::DecodedPicture& pic : pics) {
    fnv_mix(h, &pic.poc, sizeof(pic.poc));
    const auto type = static_cast<std::uint8_t>(pic.type);
    fnv_mix(h, &type, sizeof(type));
    fnv_mix(h, pic.frame.y.data.data(), pic.frame.y.data.size());
    fnv_mix(h, pic.frame.cb.data.data(), pic.frame.cb.data.size());
    fnv_mix(h, pic.frame.cr.data.data(), pic.frame.cr.data.size());
  }
  return h;
}

std::span<const std::uint8_t> scenario_reference_stream() {
  return world().clip;
}

serve::SessionEnv scenario_env() {
  ScenarioWorld& w = world();
  serve::SessionEnv env;
  env.workload = &w.workload;
  env.classifier = &w.classifier;
  env.app_table = &w.table;
  env.catalog = &w.catalog;
  return env;
}

BitstreamScenarioResult run_bitstream_scenario(const ScenarioConfig& cfg) {
  FaultPlan plan(
      FaultConfig{cfg.seed, cfg.rate, cfg.kinds & kBitstreamKinds});
  FaultCounts counts;
  const std::vector<std::uint8_t> faulted =
      inject_annexb_faults(scenario_reference_stream(), plan, counts);

  h264::Decoder dec(h264::DecoderConfig{/*enable_deblock=*/true,
                                        /*resilient=*/true});
  const std::vector<h264::DecodedPicture> pics = dec.decode_annexb(faulted);

  BitstreamScenarioResult res;
  res.stream_digest = fnv1a_bytes(faulted);
  res.pixel_digest = digest_pictures(pics);
  res.pictures = pics.size();
  res.faults = counts.total;
  res.nal_errors = dec.activity().nal_errors;
  res.resyncs = dec.activity().resyncs;
  return res;
}

AudioScenarioResult run_audio_scenario(const ScenarioConfig& cfg) {
  FaultPlan plan(FaultConfig{cfg.seed, cfg.rate, cfg.kinds & kAudioKinds});
  FaultCounts counts;

  affect::RealtimeConfig rc;
  rc.gap_tolerance_s = 0.25;  // reachable by 3+ consecutive chunk drops
  affect::RealtimePipeline pipe(world().classifier, rc);

  AudioScenarioResult res;
  pipe.on_raw_label([&res](double t_end, affect::Emotion e, float conf) {
    fnv_mix(res.label_digest, &t_end, sizeof(t_end));
    const auto emo = static_cast<std::uint8_t>(e);
    fnv_mix(res.label_digest, &emo, sizeof(emo));
    fnv_mix(res.label_digest, &conf, sizeof(conf));
  });
  res.label_digest = kFnvBasis;

  static const std::vector<double> audio = make_scenario_audio(8.0);
  const double chunk_s = 0.1;
  const auto chunk_len = static_cast<std::size_t>(
      chunk_s * world().workload.config().sample_rate_hz);
  std::vector<double> chunk(chunk_len);
  for (std::size_t start = 0; start + chunk_len <= audio.size();
       start += chunk_len) {
    std::memcpy(chunk.data(), audio.data() + start,
                chunk_len * sizeof(double));
    // Time advances whether or not the chunk is delivered: a dropped
    // chunk is a genuine capture gap, not a pause.
    const double t_s =
        static_cast<double>(start) / world().workload.config().sample_rate_hz;
    if (!maybe_fault_audio(chunk, plan, counts)) {
      ++res.chunks_dropped;
      continue;
    }
    pipe.push_audio(t_s, chunk);
  }

  res.windows_classified = pipe.stats().windows_classified;
  res.gap_resyncs = pipe.stats().gap_resyncs;
  res.stable_changes = pipe.stats().stable_changes;
  res.faults = counts.total;
  return res;
}

ServeScenarioResult run_serve_scenario(const ScenarioConfig& cfg) {
  const serve::SessionEnv env = scenario_env();

  serve::ServerConfig sc;
  sc.max_sessions = kServeScenarioSessions;
  // Watermarks far above the offered load: the backlog ladder must stay
  // at level 0 so clean-tenant byte identity isolates quarantine
  // behaviour (the ladder is global and would legitimately couple
  // tenants).  Capacity drains every staged window the same tick.
  sc.backlog_hi = 1000;
  sc.backlog_lo = 10;
  sc.batcher.max_batch = 16;
  sc.error_budget = 3;
  sc.error_window_ticks = 40;
  sc.quarantine_ticks = 10;
  sc.fault = FaultConfig{cfg.seed ^ 0xb47c4e12ull, cfg.rate,
                         cfg.kinds & kind_bit(FaultKind::kBatcherFallback)};

  serve::SessionManager server(sc, env);
  std::vector<serve::SessionId> ids;
  for (std::size_t i = 0; i < kServeScenarioSessions; ++i) {
    serve::SessionConfig scfg;
    scfg.seed = static_cast<unsigned>(100 + i);
    if (i % 2 == 1) {
      // Odd-index tenants take the per-session fault kinds; even-index
      // tenants are the clean neighbours the identity check protects.
      scfg.fault = FaultConfig{
          cfg.seed, cfg.rate,
          cfg.kinds & (kNalUnitKinds | kAudioKinds |
                       kind_bit(FaultKind::kSessionStall))};
    }
    ids.push_back(server.create_session(scfg));
  }

  for (int t = 0; t < 40; ++t) server.tick();
  server.drain();

  ServeScenarioResult res;
  for (const serve::SessionId id : ids) {
    const serve::SessionReport rep = server.report(id);
    res.decode_digests.push_back(rep.decode_digest);
    std::uint64_t wh = kFnvBasis;
    for (const serve::WindowRecord& rec : rep.windows) {
      fnv_mix(wh, &rec.seq, sizeof(rec.seq));
      fnv_mix(wh, &rec.t_end, sizeof(rec.t_end));
      const auto emo = static_cast<std::uint8_t>(rec.emotion);
      fnv_mix(wh, &emo, sizeof(emo));
      fnv_mix(wh, &rec.confidence, sizeof(rec.confidence));
      if (!rec.probabilities.empty()) {
        fnv_mix(wh, rec.probabilities.data(),
                rec.probabilities.size() * sizeof(float));
      }
    }
    res.window_digests.push_back(wh);
    res.session_faults.push_back(server.session(id).fault_counts().total);
  }
  res.results_routed = server.stats().results_routed;
  res.sessions_quarantined = server.stats().sessions_quarantined;
  res.sessions_restarted = server.stats().sessions_restarted;
  res.degrade_ticks = server.stats().degrade_ticks;
  res.max_degrade_level = server.stats().max_degrade_level;
  return res;
}

net::TransportConfig net_scenario_transport(bool fec) {
  net::TransportConfig tc;
  tc.enabled = true;
  tc.packetizer.mtu = 96;  // slices fragment, SPS+PPS aggregate
  tc.jitter.depth_ticks = 2;
  tc.channel.max_delay_ticks = 3;
  tc.fec.enabled = fec;
  tc.fec.group = 4;
  return tc;
}

NetScenarioResult run_net_scenario(const ScenarioConfig& cfg,
                                   const net::TransportConfig& tcfg) {
  FaultPlan plan(FaultConfig{cfg.seed, cfg.rate, cfg.kinds & kNetKinds});
  FaultCounts counts;
  net::TransportLink link(tcfg, &plan, &counts);

  const std::vector<h264::NalUnit> units =
      h264::unpack_annexb(scenario_reference_stream());
  h264::Decoder dec(h264::DecoderConfig{/*enable_deblock=*/true,
                                        /*resilient=*/true});
  std::vector<h264::DecodedPicture> pics;

  const auto drain = [&](std::uint64_t now) {
    for (const net::DepacketizerEvent& ev : link.receive(now)) {
      if (ev.loss) {
        dec.notify_loss();
        continue;
      }
      if (auto pic = dec.decode_nal(ev.nal.nal)) {
        pics.push_back(std::move(*pic));
      }
    }
  };

  // One access unit (leading parameter sets + their slice) per tick.
  std::uint64_t tick = 0;
  std::uint32_t au = 0;
  std::size_t i = 0;
  while (i < units.size()) {
    std::vector<h264::NalUnit> au_units;
    while (i < units.size()) {
      const h264::NalUnit& u = units[i++];
      au_units.push_back(u);
      if (h264::is_slice(u)) break;
    }
    link.send(au_units, au++, /*generation=*/0, tick);
    drain(tick);
    ++tick;
  }
  // Flush delayed packets and timed-out gaps (delay and jitter depth
  // are both bounded, so this converges quickly).
  for (int extra = 0; extra < 64 && !link.idle(); ++extra) drain(tick++);
  drain(tick + tcfg.jitter.depth_ticks + 1);

  NetScenarioResult res;
  res.pixel_digest = digest_pictures(pics);
  res.pictures = pics.size();
  const net::TransportStats ts = link.stats();
  res.packets_sent = ts.packets_sent + ts.parity_sent;
  res.packets_dropped = ts.packets_lost;
  res.packets_recovered = ts.packets_recovered;
  res.loss_events = ts.loss_events;
  res.loss_signals = dec.activity().loss_signals;
  res.resyncs = dec.activity().resyncs;
  res.faults = counts.total;
  return res;
}

NetScenarioResult run_net_scenario(const ScenarioConfig& cfg) {
  return run_net_scenario(cfg, net_scenario_transport());
}

}  // namespace affectsys::fault
