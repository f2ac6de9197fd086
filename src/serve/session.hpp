// One tenant of the session server: a seeded end-to-end pipeline
// (audio affect stream -> emotion state -> adaptive decode + emotional
// app manager) advanced in fixed media-time ticks.
//
// A session owns only cursors and per-user state — the media it
// consumes lives in the shared read-only SharedWorkload.  Its audio
// path IS the standalone RealtimePipeline (embedded in sync mode with
// a window sink), so the windowing/VAD/smoothing behaviour of a served
// session is the standalone behaviour by construction.  The sink only
// records each surviving window in the session's FeatureStream; its
// feature rows are computed afterwards (stage A's row step, which the
// server runs for every session's windows on one pool) and the finished
// feature matrices go to the server's cross-session batcher, whose
// results come back through apply_result().  With inline_inference
// (the standalone reference configuration) the finish step classifies
// immediately instead — tests prove the served single-session run
// byte-identical to this.
//
// Thread-safety: the server advances sessions concurrently
// (parallel_for over sessions, and over the rows of their windows), but
// each Session's own state is only ever touched by one task at a time —
// row jobs write disjoint rows of its windows — and everything it
// shares is read-only: the classifier's feature extractor is immutable,
// and only the inline_inference path calls the classifier's model (the
// server never sets that flag, so its sessions never touch the shared
// model; the serialized batcher does).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "adaptive/input_selector.hpp"
#include "adaptive/modes.hpp"
#include "affect/realtime.hpp"
#include "android/process.hpp"
#include "core/emotional_policy.hpp"
#include "fault/audio_faults.hpp"
#include "fault/bitstream_faults.hpp"
#include "fault/plan.hpp"
#include "h264/decoder.hpp"
#include "net/transport.hpp"
#include "power/device.hpp"
#include "serve/batcher.hpp"
#include "serve/ladder.hpp"
#include "serve/workload.hpp"
#include "simulcast/policy.hpp"
#include "simulcast/selector.hpp"

namespace affectsys::serve {

/// Degrade level at which tick_media() stops decoding and sheds the
/// tick's frames outright — one past the deepest affect-adaptive mode
/// (level 2 = forced Combined).
inline constexpr int kFrameShedLevel = 3;

/// Simulcast layer switching for one session (requires a workload whose
/// SimulcastClip was built — see WorkloadConfig::simulcast).  Media
/// ticks walk the aligned multi-layer clip picture by picture: the
/// switch policy is evaluated once per tick over (affect mode, context
/// vector) and the LayerSelector changes the forwarded layer only at
/// aligned IDRs.  Off (the default), the session walks the workload's
/// single-stream clip (a 1-layer clip) with no simulcast bookkeeping, so
/// its output is byte-identical to pre-simulcast builds.
struct SimulcastSessionConfig {
  bool enabled = false;
  /// When true, `policy` is ignored and the session builds
  /// simulcast::default_switch_policy(clip layer count) — or
  /// conference_switch_policy when `conference` is also set.
  bool use_default_policy = true;
  /// Room member: the default policy becomes the conference table (role
  /// rows for recent/idle speakers).  The server sets this when a
  /// session is created into a room; for the dominant speaker the table
  /// reduces to the default one, so a K=1 room stays byte-identical.
  bool conference = false;
  simulcast::SwitchPolicy policy{};
  /// Deterministic battery/thermal stub feeding the context vector (the
  /// default never triggers the low-power rows).
  power::DeviceStateConfig device{};
};

struct SessionConfig {
  /// Drives the emotion script, silence gaps and app-launch trace;
  /// everything a session does is a pure function of this seed plus the
  /// server's scheduling decisions.
  unsigned seed = 1;
  double tick_s = 0.1;   ///< media time advanced per tick
  double fps = 25.0;     ///< video frames per media second
  std::size_t script_segments = 6;
  /// Launch one app from the seeded trace every N ticks (0 = no app
  /// manager traffic).
  std::size_t app_launch_period_ticks = 25;
  /// Audio pipeline shape (the session supplies the window sink).
  /// max_inflight is the per-session queue bound — the drop-newest
  /// shedding knob.
  affect::RealtimeConfig realtime{};
  adaptive::SelectorParams selector{140, 1};
  /// Per-session fault injection (disabled by default).  The effective
  /// plan seed mixes in the session id, so identically-configured
  /// tenants still fault independently; the session's decoder runs
  /// resilient either way, which is byte-identical on clean streams.
  fault::FaultConfig fault{};
  /// Transport-fed media: when enabled, tick_media's sender packetizes
  /// the clip through an in-session TransportLink (driven by the same
  /// fault plan, kNetKinds sites) and its receiver decodes what survives
  /// the jitter buffer; otherwise the sender hands units to an identity
  /// link (pointers into the shared clip).  Input Selector NAL deletion
  /// runs in the sender either way (shed slices never cost network
  /// bytes), and transport losses reach the decoder as notify_loss()
  /// resync cues.  With a rate-0 plan the transport link is the identity
  /// function too, so the decode digest matches in-process decode.
  net::TransportConfig transport{};
  /// Simulcast layer switching; with transport also enabled,
  /// transport.layers must equal the workload clip's layer count.
  SimulcastSessionConfig simulcast{};
  /// Duty cycle for timer-wheel scheduling: after `duty_active_ticks`
  /// consecutive local ticks the session asks to sleep for
  /// `duty_idle_ticks` server ticks (next_wake_delay()).  0 idle ticks
  /// (the default) keeps the session always-on.  Because all session
  /// timing runs on the *local* tick, a duty-cycled session's outputs
  /// per local tick are identical to an always-on session's — idle
  /// phases stretch wall/server time, not media behaviour.
  std::size_t duty_active_ticks = 1;
  std::size_t duty_idle_ticks = 0;
  /// False drops the per-window replay log (windows + stable trace) —
  /// the large-fleet benches keep thousands of mostly-idle sessions
  /// allocation-free this way.  Digests and counters still accumulate.
  bool record_trace = true;
};

struct SessionStats {
  std::uint64_t ticks = 0;
  std::uint64_t windows_enqueued = 0;  ///< handed to the batcher
  std::uint64_t results_applied = 0;
  std::uint64_t frames_decoded = 0;
  std::uint64_t frames_dropped = 0;  ///< shed by overload level >= 3
  std::uint64_t nals_deleted = 0;
  std::uint64_t app_launches = 0;
  std::uint64_t mode_switches = 0;
  // Fault exposure and recovery (all zero without fault injection).
  std::uint64_t decode_errors = 0;   ///< malformed NALs the decoder swallowed
  std::uint64_t pictures_lost = 0;   ///< display slots lost to faulted slices
  std::uint64_t chunks_dropped = 0;  ///< audio chunks lost to drop faults
  std::uint64_t stall_ticks = 0;     ///< ticks spent in an injected stall
  // Transport exposure (all zero without cfg.transport.enabled).  Lost
  // packets deliberately do NOT feed the server's error budget: network
  // loss is a channel property, not tenant misbehaviour — the decoder's
  // resync path absorbs it instead of quarantine.
  std::uint64_t packets_sent = 0;       ///< data + parity sent
  std::uint64_t packets_lost = 0;       ///< dropped by the channel
  std::uint64_t packets_recovered = 0;  ///< rebuilt by FEC in time
  std::uint64_t nals_lost = 0;          ///< loss events fed to notify_loss
  // Simulcast exposure (all zero with simulcast off).
  std::uint64_t layer_switches = 0;       ///< completed layer changes
  std::uint64_t layer_wait_pictures = 0;  ///< pictures waiting for the IDR
  std::uint64_t frames_downswitched = 0;  ///< shed slots saved by a downswitch
  std::array<std::uint64_t, 4> layer_pictures{};  ///< forwarded per layer
  std::array<std::uint64_t, 4> layer_bytes{};     ///< slice bytes per layer
};

/// Raw per-window classification, recorded for replay comparison.
struct WindowRecord {
  std::uint64_t seq = 0;
  double t_end = 0.0;
  affect::Emotion emotion = affect::Emotion::kNeutral;
  float confidence = 0.0f;
  std::vector<float> probabilities;
};

/// Everything a byte-identity comparison needs: raw windows, the
/// smoothed emotion trace, a digest of every decoded pixel, and the
/// counters.
struct SessionReport {
  /// Which session this report pins: multi-session (room) replay
  /// comparisons need traces keyed by id, not by vector position.
  SessionId session_id = 0;
  std::vector<WindowRecord> windows;
  std::vector<std::pair<double, affect::Emotion>> stable_trace;
  /// (global picture index, new layer) for every forwarded-layer change
  /// — by the selector contract each index past the first of a
  /// generation lands on an aligned IDR, which the invariant tests pin.
  /// Empty with simulcast off or record_trace false.
  std::vector<std::pair<std::uint64_t, std::uint8_t>> layer_trace;
  /// Selector roll-up (all zero with simulcast off).
  simulcast::LayerSelectorStats layer_selector;
  /// h264::frame_digest chained over every decoded picture in order.
  std::uint64_t decode_digest = 1469598103934665603ull;
  SessionStats stats;
  affect::RealtimeStats realtime;
  android::LoadingMetrics apps;
  net::TransportStats transport;  ///< zeroes without transport mode
};

/// Shared server context handed to every session; must outlive them.
struct SessionEnv {
  const SharedWorkload* workload = nullptr;
  affect::AffectClassifier* classifier = nullptr;
  /// Both null disables app-manager traffic.
  const core::AppAffectTable* app_table = nullptr;
  const std::vector<android::App>* catalog = nullptr;
  /// Optional pool backing staged feature windows; null falls back to
  /// per-request heap buffers (same bytes, more allocator traffic).
  core::BufferPool* feature_pool = nullptr;
  /// Unread (serve/ladder.hpp); kept for callers that assign it.
  const LadderConfig* ladder = nullptr;
};

class Session {
 public:
  /// `inline_inference` classifies windows synchronously at the sink
  /// (the standalone reference path); the server always passes false.
  /// `start_tick` is the server tick the session is admitted at: the
  /// session's *local* clock starts there and advances only on ticks the
  /// session actually runs, so an always-on session's local and server
  /// time stay equal forever.
  Session(SessionId id, const SessionConfig& cfg, const SessionEnv& env,
          bool inline_inference, std::uint64_t start_tick = 0);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  SessionId id() const { return id_; }

  /// Stage A for this session alone: ingest_audio(), the row step for
  /// its windows on the calling thread, then finish_windows().  The
  /// server runs the three steps itself, the row step across sessions.
  void pump_audio(std::uint64_t tick);

  /// Stage A, ingest step (parallel across sessions): one tick of audio
  /// through the embedded pipeline — chunk, faults, VAD and window
  /// selection.  A surviving window is recorded, not extracted.
  void ingest_audio(std::uint64_t tick);
  /// Stage A, row step input: appends the rows this tick's windows still
  /// need (rows shared with the window before are copied at finish).
  /// The jobs stay valid until finish_windows().
  void add_row_jobs(std::vector<affect::RowJob>& jobs);
  /// Stage A, finish step (after every row job ran): in window order,
  /// copy the reused rows, standardize, and stage for the batcher — or
  /// classify inline in standalone mode.
  void finish_windows();

  /// Enqueues this tick's staged windows into `b` (FIFO; the server
  /// drains sessions serially in id order, so batch assembly is
  /// deterministic), leaving the staging ring's slots (and their pool
  /// blocks' refs, once released) for reuse.
  void drain_staged(InferenceBatcher& b);

  /// Delivers one batched classification (seq order per session).
  void apply_result(const RoutedResult& r);

  /// Stage C (parallel across sessions): decode this tick's share of
  /// video under degraded_mode(policy mode, degrade_level) — level >= 3
  /// sheds the frames outright — and replay the app-launch trace.
  void tick_media(std::uint64_t tick, int degrade_level);

  /// Pending windows this session is responsible for (staged here plus
  /// in flight at the batcher) — the server's backlog input.
  std::size_t outstanding() const { return staged_count_ + inflight_; }

  /// Server ticks until this session next needs to run, per its duty
  /// cycle (always 1 with duty_idle_ticks == 0).  Consulted by the
  /// server's timer wheel after tick_media().
  std::uint64_t next_wake_delay() const {
    if (cfg_.duty_idle_ticks == 0) return 1;
    const std::uint64_t runs = local_tick_ - start_tick_;
    const std::uint64_t active = cfg_.duty_active_ticks ? cfg_.duty_active_ticks : 1;
    return (runs % active == 0) ? cfg_.duty_idle_ticks + 1 : 1;
  }

  /// Local (media) tick count: how many ticks this session has actually
  /// run plus its admission tick.  Equals the server tick for an
  /// always-on session.
  std::uint64_t local_tick() const { return local_tick_; }

  /// Windows at the batcher with no result applied yet; the quarantine
  /// path must drop exactly this many stale results on arrival.
  std::size_t inflight() const { return inflight_; }
  std::uint64_t dropped_windows() const { return pipeline_.dropped(); }

  /// Faults the per-session plan has actually injected so far.
  const fault::FaultCounts& fault_counts() const { return fault_counts_; }

  adaptive::DecoderMode policy_mode() const { return policy_mode_; }
  adaptive::DecoderMode last_effective_mode() const { return effective_mode_; }

  /// Mean-square energy of the last tick's audio chunk (0 during an
  /// injected stall or a dropped chunk) — the active-speaker detector's
  /// per-tick observation.  Valid after ingest_audio().
  double audio_energy() const { return last_energy_; }
  /// EMA of applied-result confidence: the affect half of the
  /// active-speaker score.
  float affect_confidence() const { return conf_ema_; }
  /// Conference role for this tick's switch-policy context.  Non-room
  /// sessions stay kDominant forever, so the role column never fires
  /// for them.  Set by the server's room stage before tick_media().
  void set_speaker_role(simulcast::SpeakerRole role) {
    speaker_role_ = static_cast<int>(role);
  }
  simulcast::SpeakerRole speaker_role() const {
    return static_cast<simulcast::SpeakerRole>(speaker_role_);
  }
  const SessionStats& stats() const { return stats_; }

  /// Drains nothing — snapshots the run so far.  Call only between
  /// ticks (or after close) with no results in flight.
  SessionReport report() const;

 private:
  void on_window(double t_end, std::span<const double> window);
  void stage_window(double t_end, const nn::Matrix& features);
  void record_result(std::uint64_t seq, double t_end,
                     const affect::ClassificationResult& res);
  void fill_chunk(std::span<double> chunk);
  /// Sender: walks `slots` display slots of clip_ (wrap, layer choice,
  /// join, Input Selector deletion) and hands each access unit to the
  /// link.
  void send_pictures(std::size_t slots, const adaptive::ModeConfig& mc);
  void send_unit(const h264::NalUnit& nal, std::size_t layer);
  /// Receiver: one (loss, layer, generation, NAL) event off the link —
  /// lane adoption, generation reset, loss cue, fault site, decode.
  void receive_unit(bool loss, std::uint8_t layer, std::uint32_t generation,
                    const h264::NalUnit& nal, bool deblock);
  void decode_unit(const h264::NalUnit& unit);
  /// Evaluates the switch policy for this tick (context vector sampled
  /// once) and applies the downswitch-before-shed override.  Returns
  /// whether this tick still sheds (only when already on the bottom
  /// layer).
  bool sim_request_layer(std::size_t budget, int degrade_level, bool shed);
  /// Copies the cumulative selector stats into stats_.
  void sim_sync_counters();

  SessionId id_;
  SessionConfig cfg_;
  SessionEnv env_;
  bool inline_inference_;

  // Audio/affect path.
  affect::RealtimePipeline pipeline_;
  /// This tick's recorded windows and the last one's raw rows (overlap
  /// reuse), extracted by the classifier's shared FeatureExtractor.
  affect::FeatureStream features_;
  std::vector<ScriptSegment> script_;
  std::size_t script_idx_ = 0;
  std::size_t script_offset_ = 0;  ///< samples into the current segment
  std::uint64_t current_tick_ = 0;  ///< stamped onto staged requests
  /// Local (media) clock: starts at the admission tick and advances by
  /// one per executed tick.  All media timing (audio timestamps, frame
  /// budgets, app-launch cadence, transport ticks) runs on this clock,
  /// so a duty-cycled session behaves per-run exactly like an always-on
  /// one, whose local tick equals the server tick.
  std::uint64_t local_tick_ = 0;
  std::uint64_t start_tick_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t inflight_ = 0;  ///< at the batcher, result not yet applied
  /// Staging ring: the first staged_count_ elements are this tick's
  /// windows; slots are reused across ticks so staging is allocation-
  /// free once warm.
  std::vector<InferenceRequest> staged_;
  std::size_t staged_count_ = 0;

  // Fault injection (plan disabled unless cfg.fault.rate > 0).
  fault::FaultPlan fault_plan_;
  fault::FaultCounts fault_counts_;
  std::uint64_t stall_remaining_ = 0;  ///< injected-stall ticks left

  // Emotion -> mode state.
  adaptive::AffectVideoPolicy policy_;
  adaptive::DecoderMode policy_mode_ = adaptive::DecoderMode::kStandard;
  adaptive::DecoderMode effective_mode_ = adaptive::DecoderMode::kStandard;

  // Video path: a sender walking clip_ and a receiver decoding what the
  // link releases.  The single-stream clip is a 1-layer clip.
  const simulcast::SimulcastClip* clip_ = nullptr;
  h264::Decoder decoder_;
  adaptive::InputSelector selector_;
  simulcast::LayerSelector layer_selector_{1, 0};
  double frame_carry_ = 0.0;
  std::size_t pic_ = 0;           ///< next picture index within the clip
  std::uint64_t pic_global_ = 0;  ///< pictures walked since admission
  std::size_t cur_layer_ = 0;     ///< layer the sender is joined to
  bool layer_valid_ = false;      ///< false forces a (re)join next picture
  std::uint32_t send_au_ = 0;     ///< access-unit timestamp within generation
  std::uint32_t send_gen_ = 0;    ///< sender clip-loop count
  std::uint32_t rx_gen_ = 0;      ///< last generation the receiver decoded
  std::uint8_t rx_layer_ = 0;     ///< lane the receiver's decoder is tuned to
  bool rx_layer_valid_ = false;   ///< adopt the first usable lane seen
  /// Transport link (null unless cfg.transport.enabled).  Access units
  /// assemble into a reused ring (first au_count_ elements valid); slots
  /// copy-assign NalUnits so payload capacity is reused across ticks.
  std::unique_ptr<net::TransportLink> link_;
  std::vector<h264::NalUnit> au_;
  std::size_t au_count_ = 0;
  /// Identity link (in-process media): this tick's sent units as
  /// pointers into the shared clip, drained by the receiver the same
  /// tick.  Capacity is reused, so it stops allocating once warm.
  struct SentUnit {
    const h264::NalUnit* nal;
    std::uint32_t generation;
    std::uint8_t layer;
  };
  std::vector<SentUnit> sent_;

  // Conference inputs (inert outside a room: energy and confidence are
  // tracked but unread, and the role stays kDominant).
  double last_energy_ = 0.0;
  float conf_ema_ = 0.0f;  ///< EMA of applied-result confidence
  int speaker_role_ = static_cast<int>(simulcast::SpeakerRole::kDominant);

  // Simulcast bookkeeping (all dormant unless cfg.simulcast.enabled).
  simulcast::SwitchPolicy sim_policy_;
  std::vector<std::pair<std::uint64_t, std::uint8_t>> layer_trace_;

  // App/memory manager path (optional; both null when SessionEnv does
  // not supply a table + catalog).
  std::unique_ptr<core::EmotionalKillPolicy> kill_policy_;
  std::unique_ptr<android::ProcessManager> pm_;
  std::mt19937 app_rng_;

  // Replay log.
  std::vector<WindowRecord> windows_;
  std::vector<std::pair<double, affect::Emotion>> stable_trace_;
  std::uint64_t digest_ = 1469598103934665603ull;
  SessionStats stats_;
};

}  // namespace affectsys::serve
