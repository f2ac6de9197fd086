#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "affect/speech_synth.hpp"
#include "android/catalog.hpp"
#include "android/personality.hpp"
#include "fault/plan.hpp"
#include "h264/nal.hpp"
#include "nn/model.hpp"
#include "nn/trainer.hpp"
#include "simulcast/encoder.hpp"

namespace perfbench {
namespace {

using affect::Emotion;

constexpr std::array<WorkloadSpec, 4> kWorkloads{{
    {Kind::kLiveSessions, "live_sessions", 48, 1, 0, false, false},
    {Kind::kHdPlayback, "hd_playback", 6, 1, 0, false, false},
    {Kind::kLossyConference, "lossy_conference", 32, 1, 4, false, true},
    // Four admissions per tick across one 256-tick duty period put the
    // same 32 sessions on every tick's due list.
    {Kind::kIdleFleet, "idle_fleet", 1024, 4, 0, true, false},
}};

constexpr int kHdFrames = 24;  ///< two 12-picture GOPs of CIF
/// Seeded packet loss on every lossy_conference link.  The switch
/// policy calls a link lossy above 2% (simulcast::ContextThresholds),
/// counted before FEC recovery; above that every speaker, the dominant
/// one included, is held one rung down and the top layer never plays.
/// 1% keeps each link's measured rate clear of the threshold.
constexpr double kLossRate = 0.01;
constexpr std::size_t kDutyActiveTicks = 8;
constexpr std::size_t kDutyIdleTicks = 248;

unsigned seed32(std::uint64_t seed, std::uint64_t salt) {
  return static_cast<unsigned>(derive(seed, salt) >> 32);
}

/// Sets ServerConfig::wheel where the field exists; once the timer wheel
/// is the only scheduler the field is gone and this compiles to nothing.
template <typename Config>
void use_wheel(Config& cfg) {
  if constexpr (requires { cfg.wheel = true; }) cfg.wheel = true;
}

/// S_th for a clip: the largest P/B slice of its small-slice cluster.  A
/// two-way split of the log slice sizes (least within-cluster squared
/// error) separates quiet-scene slices from busy ones, so deletion drops
/// the quiet P/B slices the way S_th = 140 does on the 64x64 clip.
std::size_t quiet_slice_threshold(const serve::SharedWorkload& w) {
  std::vector<std::size_t> sizes;
  for (const h264::NalUnit& nal : w.nal_units()) {
    if (nal.type == h264::NalType::kSliceNonIdr) sizes.push_back(nal.byte_size());
  }
  if (sizes.size() < 2) throw std::runtime_error("clip has under two P/B slices");
  std::sort(sizes.begin(), sizes.end());
  const std::size_t n = sizes.size();
  std::vector<double> sum(n + 1, 0.0);
  std::vector<double> sq(n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double l = std::log(static_cast<double>(sizes[i]));
    sum[i + 1] = sum[i] + l;
    sq[i + 1] = sq[i] + l * l;
  }
  const auto sse = [&](std::size_t a, std::size_t b) {
    const double s = sum[b] - sum[a];
    return sq[b] - sq[a] - s * s / static_cast<double>(b - a);
  };
  std::size_t split = 1;
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t k = 1; k < n; ++k) {
    const double cost = sse(0, k) + sse(k, n);
    if (cost < best) {
      best = cost;
      split = k;
    }
  }
  return sizes[split - 1];
}

affect::AffectClassifier train_classifier(const std::vector<Emotion>& emotions,
                                          std::uint64_t seed) {
  affect::CorpusProfile prof;
  prof.name = "perfbench";
  prof.num_speakers = 4;
  prof.emotions = emotions;
  prof.utterances_per_speaker_emotion = 6;
  prof.utterance_seconds = 1.0;
  prof.speaker_spread = 0.1;
  nn::TrainConfig tc;
  tc.epochs = 8;
  tc.batch_size = 8;
  tc.learning_rate = 2e-3f;
  tc.seed = seed32(seed, 3);
  return affect::train_affect_classifier(nn::ModelKind::kMlp, prof, tc,
                                         seed32(seed, 4));
}

}  // namespace

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

serve::SessionEnv World::env() const {
  serve::SessionEnv env;
  env.workload = workload.get();
  env.classifier = classifier.get();
  env.app_table = &table;
  env.catalog = &catalog;
  return env;
}

std::unique_ptr<World> build_world(const WorkloadSpec& spec,
                                   std::uint64_t seed) {
  auto w = std::make_unique<World>();
  w->spec = spec;
  w->seed = seed;
  const bool hd = spec.kind == Kind::kHdPlayback;
  const bool conference = spec.rooms != 0;
  // hd_playback plays the paper's four uulmMAC case-study states, which
  // map onto all four decoder modes; the rest play the Angry/Calm pair.
  const std::vector<Emotion> emotions =
      hd ? std::vector<Emotion>{Emotion::kDistracted, Emotion::kConcentrated,
                                Emotion::kTense, Emotion::kRelaxed}
         : std::vector<Emotion>{Emotion::kAngry, Emotion::kCalm};

  serve::WorkloadConfig wc;
  // Scripted speech runs 2-4 s per segment, so a 4 s utterance never
  // loops inside one.
  wc.utterance_s = 4.0;
  wc.emotions = emotions;
  wc.synth_seed = seed32(seed, 1);
  wc.video.seed = seed32(seed, 2);
  if (hd) {
    wc.video.width = wc.encoder.width = 352;  // CIF
    wc.video.height = wc.encoder.height = 288;
    wc.video.frames = kHdFrames;
  }
  if (conference) {
    wc.simulcast = simulcast::default_simulcast_config();
    wc.simulcast.scene.seed = seed32(seed, 2);
  }
  w->workload = std::make_unique<serve::SharedWorkload>(wc);
  // new + prvalue: the classifier is built in place, never moved.
  w->classifier.reset(
      new affect::AffectClassifier(train_classifier(emotions, seed)));
  w->catalog = android::build_catalog(android::EmulatorSpec{}, seed32(seed, 5));
  for (const Emotion e : emotions) {
    w->table.learn_from_profile(e, android::profile_for_emotion(e), w->catalog);
  }

  w->server.max_sessions = std::max(w->server.max_sessions, spec.sessions);
  if (spec.wheel) use_wheel(w->server);

  const std::size_t hd_s_th = hd ? quiet_slice_threshold(*w->workload) : 0;
  w->sessions.resize(spec.sessions);
  for (std::size_t i = 0; i < spec.sessions; ++i) {
    serve::SessionConfig& sc = w->sessions[i];
    sc.seed = seed32(seed, (std::uint64_t{1} << 32) + i);
    if (hd) sc.selector.s_th = hd_s_th;
    if (conference) {
      sc.simulcast.enabled = true;
      sc.transport.enabled = true;
      sc.transport.layers = static_cast<std::uint8_t>(
          w->workload->simulcast_clip()->layer_count());
      sc.transport.packetizer.mtu = 96;  // slices fragment, SPS+PPS aggregate
      sc.transport.fec.enabled = true;
    }
    if (spec.lossy) {
      sc.fault = fault::FaultConfig{
          derive(seed, (std::uint64_t{2} << 32) + i), kLossRate,
          fault::kind_bit(fault::FaultKind::kPacketLoss)};
    }
    if (spec.wheel) {
      sc.duty_active_ticks = kDutyActiveTicks;
      sc.duty_idle_ticks = kDutyIdleTicks;
      sc.record_trace = false;
    }
  }
  w->sampled = {0, 1 + static_cast<std::size_t>(derive(seed, 6) %
                                                (spec.sessions - 1))};
  // The label check compares the sampled sessions window for window, so
  // they keep their replay logs even in the log-free fleet.
  for (const std::size_t i : w->sampled) w->sessions[i].record_trace = true;
  return w;
}

}  // namespace perfbench
