#include "serve/session.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace affectsys::serve {

Session::Session(SessionId id, const SessionConfig& cfg, const SessionEnv& env,
                 bool inline_inference, std::uint64_t start_tick)
    : id_(id),
      cfg_(cfg),
      env_([&] {
        // Checked here (not in the body): members below dereference both.
        if (env.workload == nullptr || env.classifier == nullptr) {
          throw std::invalid_argument(
              "Session: workload and classifier required");
        }
        return env;
      }()),
      inline_inference_(inline_inference),
      pipeline_(*env.classifier, cfg_.realtime),
      features_(env.classifier->features()),
      fault_plan_([&] {
        // Mix the session id into the plan seed so identically
        // configured tenants fault independently (and a restarted
        // session replays its own schedule, not a neighbour's).
        fault::FaultConfig fc = cfg.fault;
        fc.seed ^= 0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(id) + 1);
        return fc;
      }()),
      decoder_(h264::DecoderConfig{/*enable_deblock=*/true,
                                   /*resilient=*/true}),
      selector_(cfg_.selector),
      app_rng_(cfg_.seed ^ 0x9e3779b9u) {
  local_tick_ = start_tick;
  start_tick_ = start_tick;
  script_ = env_.workload->make_script(cfg_.seed, cfg_.script_segments);
  if (script_.empty()) {
    throw std::invalid_argument("Session: script_segments must be >= 1");
  }
  // Integer per-segment sample counts (truncated from the seconds at
  // this session's sample rate), so playback walks whole samples.
  const double rate = cfg_.realtime.sample_rate_hz;
  for (ScriptSegment& seg : script_) {
    seg.speech_samples = static_cast<std::size_t>(seg.speech_s * rate);
    seg.silence_samples = static_cast<std::size_t>(seg.silence_s * rate);
  }

  if (env_.app_table != nullptr && env_.catalog != nullptr &&
      !env_.catalog->empty()) {
    kill_policy_ = std::make_unique<core::EmotionalKillPolicy>(*env_.app_table);
    pm_ = std::make_unique<android::ProcessManager>(
        *env_.catalog, android::ProcessManagerConfig{}, *kill_policy_);
  }

  // Media: the single-stream clip is a 1-layer clip, so one sender loop
  // and one receiver serve both.  Simulcast picks the multi-layer clip,
  // the switch policy and the per-layer bookkeeping; with it off those
  // stay dormant and the layer selector forwards layer 0 forever.
  clip_ = cfg_.simulcast.enabled ? env_.workload->simulcast_clip()
                                 : &env_.workload->clip();
  if (cfg_.simulcast.enabled) {
    if (clip_ == nullptr) {
      throw std::invalid_argument(
          "Session: simulcast enabled but the workload built no clip "
          "(set WorkloadConfig::simulcast.layers)");
    }
    const std::size_t n = clip_->layer_count();
    if (cfg_.transport.enabled &&
        static_cast<std::size_t>(cfg_.transport.layers) != n) {
      throw std::invalid_argument(
          "Session: transport.layers must equal the simulcast clip's "
          "layer count");
    }
    sim_policy_ = !cfg_.simulcast.use_default_policy
                      ? cfg_.simulcast.policy
                  : cfg_.simulcast.conference
                      ? simulcast::conference_switch_policy(n)
                      : simulcast::default_switch_policy(n);
    // Sessions join on the top layer.
    layer_selector_ = simulcast::LayerSelector(n, n - 1);
  }

  if (cfg_.transport.enabled) {
    link_ = std::make_unique<net::TransportLink>(cfg_.transport, &fault_plan_,
                                                 &fault_counts_);
  }

  pipeline_.set_window_sink(
      [this](double t_end, std::span<const double> window) {
        on_window(t_end, window);
      });
}

void Session::fill_chunk(std::span<double> chunk) {
  for (double& sample : chunk) {
    const ScriptSegment* seg = &script_[script_idx_];
    std::size_t total_n = seg->speech_samples + seg->silence_samples;
    while (script_offset_ >= total_n) {
      script_offset_ = 0;
      script_idx_ = (script_idx_ + 1) % script_.size();
      seg = &script_[script_idx_];
      total_n = seg->speech_samples + seg->silence_samples;
    }
    if (script_offset_ < seg->speech_samples) {
      const std::span<const double> utt = env_.workload->utterance(seg->emotion);
      sample = utt[script_offset_ % utt.size()];
    } else {
      sample = 0.0;
    }
    ++script_offset_;
  }
}

void Session::pump_audio(std::uint64_t tick) {
  ingest_audio(tick);
  const affect::FeatureExtractor& fx = env_.classifier->features();
  for (std::size_t k = 0; k < features_.size(); ++k) {
    const affect::RowJob job = features_.job(k);
    fx.compute_rows(job.samples, job.begin, job.end, *job.raw);
  }
  finish_windows();
}

void Session::ingest_audio(std::uint64_t tick) {
  ++stats_.ticks;
  current_tick_ = tick;
  // A tick that delivers no audio (stall, dropped chunk) is silence to
  // the active-speaker detector.
  last_energy_ = 0.0;
  if (fault_plan_.enabled()) {
    if (stall_remaining_ > 0) {
      // Injected stall: media time passes, no audio arrives.  The
      // pipeline sees the gap when audio resumes and resyncs.
      --stall_remaining_;
      ++stats_.stall_ticks;
      return;
    }
    if (fault_plan_.next(fault::kind_bit(fault::FaultKind::kSessionStall))) {
      fault_counts_.record(fault::FaultKind::kSessionStall);
      // 1-3 s of media time at the default 0.1 s tick — long enough to
      // exceed the pipeline's gap tolerance sometimes, not always.
      stall_remaining_ = 9 + fault_plan_.draw(21);
      ++stats_.stall_ticks;
      return;
    }
  }
  // The chunk lives only inside this call (the pipeline copies it into
  // its window buffer), so it is this thread's scratch, not session
  // state.
  thread_local std::vector<double> chunk;
  chunk.resize(static_cast<std::size_t>(
      std::llround(cfg_.tick_s * cfg_.realtime.sample_rate_hz)));
  fill_chunk(chunk);
  if (fault_plan_.enabled() &&
      !fault::maybe_fault_audio(chunk, fault_plan_, fault_counts_)) {
    ++stats_.chunks_dropped;
    return;  // capture gap: the chunk never reaches the pipeline
  }
  // Active-speaker observation: mean-square energy of the chunk that
  // actually reaches the pipeline (post-fault, so a zeroed chunk reads
  // as silence — the detector hears what the pipeline hears).
  if (!chunk.empty()) {
    double acc = 0.0;
    for (double s : chunk) acc += s * s;
    last_energy_ = acc / static_cast<double>(chunk.size());
  }
  // Media time runs on the *local* clock, which advances only on ticks
  // that run, so idle phases never appear as capture gaps.
  pipeline_.push_audio(static_cast<double>(local_tick_) * cfg_.tick_s, chunk);
}

// The pipeline's running sample count (its buffer's coordinates, which
// a gap resync restarts a whole window ahead) places the window for
// overlap reuse.
void Session::on_window(double t_end, std::span<const double> window) {
  features_.push(t_end, window, pipeline_.stats().samples_in);
}

void Session::add_row_jobs(std::vector<affect::RowJob>& jobs) {
  for (std::size_t k = 0; k < features_.size(); ++k) {
    const affect::RowJob job = features_.job(k);
    if (job.begin < job.end) jobs.push_back(job);
  }
}

void Session::finish_windows() {
  for (std::size_t k = 0; k < features_.size(); ++k) {
    stage_window(features_.t_end(k), features_.finish(k));
  }
  features_.clear();
}

void Session::stage_window(double t_end, const nn::Matrix& features) {
  ++stats_.windows_enqueued;
  if (inline_inference_) {
    // Standalone reference path: classify the window the tick it was
    // staged, as a non-served pipeline would.
    record_result(next_seq_++, t_end,
                  env_.classifier->classify_features(features));
    return;
  }
  if (staged_count_ == staged_.size()) staged_.emplace_back();
  InferenceRequest& req = staged_[staged_count_++];
  req.session = id_;
  req.seq = next_seq_++;
  req.enqueue_tick = current_tick_;
  req.t_end = t_end;
  req.set_features(features, env_.feature_pool);
}

void Session::drain_staged(InferenceBatcher& b) {
  inflight_ += staged_count_;
  for (std::size_t i = 0; i < staged_count_; ++i) {
    b.enqueue(std::move(staged_[i]));
  }
  staged_count_ = 0;
}

void Session::apply_result(const RoutedResult& r) {
  if (inflight_ == 0) {
    throw std::logic_error("Session: result applied with nothing in flight");
  }
  --inflight_;
  record_result(r.seq, r.t_end, r.result);
}

void Session::record_result(std::uint64_t seq, double t_end,
                            const affect::ClassificationResult& res) {
  if (cfg_.record_trace) {
    windows_.push_back(WindowRecord{seq, t_end, res.emotion, res.confidence,
                                    res.probabilities});
  }
  ++stats_.results_applied;
  // The active-speaker detector's affect input (read only by rooms).
  conf_ema_ = 0.75f * conf_ema_ + 0.25f * res.confidence;
  if (const auto stable = pipeline_.apply_label(t_end, res.emotion)) {
    if (cfg_.record_trace) stable_trace_.emplace_back(t_end, *stable);
    policy_mode_ = policy_.mode_for(*stable);
    if (kill_policy_) kill_policy_->set_emotion(*stable);
    ++stats_.mode_switches;
  }
}

void Session::tick_media(std::uint64_t /*tick*/, int degrade_level) {
  const bool sim = cfg_.simulcast.enabled;
  // Simulcast sessions gain a degrade rung *below* NAL deletion: level 1
  // is downswitch-only (the policy sees pressure 1 but the decoder mode
  // is not forced yet), so the whole mode ladder shifts one level deeper.
  const int mode_level = sim ? std::max(0, degrade_level - 1) : degrade_level;
  effective_mode_ = adaptive::degraded_mode(policy_mode_, mode_level);
  frame_carry_ += cfg_.fps * cfg_.tick_s;
  const auto budget = static_cast<std::size_t>(frame_carry_);
  frame_carry_ -= static_cast<double>(budget);

  bool shed = degrade_level >= kFrameShedLevel;
  if (sim) shed = sim_request_layer(budget, degrade_level, shed);
  const adaptive::ModeConfig mc = adaptive::mode_config(
      effective_mode_, cfg_.selector.s_th, cfg_.selector.f);
  if (shed) {
    // Every affect-adaptive knob is already exhausted at Combined; beyond
    // that the *sender* sheds this tick's frames outright (nothing is
    // sent, so shed frames cost no network bytes), while the receiver
    // still drains whatever the link has in flight.
    stats_.frames_dropped += budget;
  } else {
    send_pictures(budget, mc);
  }

  // Receiver: decode in release order.  Per-tick fault consultation
  // order (see the SessionManager::tick contract): the link's net sites
  // ran inside send(), before the per-NAL bitstream sites here, all on
  // this session's one plan.
  decoder_.set_deblock_enabled(mc.deblock);
  if (link_) {
    for (const net::DepacketizerEvent& ev : link_->receive(local_tick_)) {
      receive_unit(ev.loss, ev.nal.layer, ev.nal.generation, ev.nal.nal,
                   mc.deblock);
    }
    // Roll link totals into the stats block.
    const net::TransportStats ts = link_->stats();
    stats_.packets_sent = ts.packets_sent + ts.parity_sent;
    stats_.packets_lost = ts.packets_lost;
    stats_.packets_recovered = ts.packets_recovered;
  } else {
    for (const SentUnit& u : sent_) {
      receive_unit(false, u.layer, u.generation, *u.nal, mc.deblock);
    }
    sent_.clear();
  }
  if (sim) sim_sync_counters();

  if (pm_ && cfg_.app_launch_period_ticks != 0 &&
      local_tick_ % cfg_.app_launch_period_ticks == 0) {
    std::uniform_int_distribution<std::size_t> pick(0,
                                                    env_.catalog->size() - 1);
    pm_->launch((*env_.catalog)[pick(app_rng_)].id,
                static_cast<double>(local_tick_) * cfg_.tick_s);
    ++stats_.app_launches;
  }
  ++local_tick_;
}

// Sender: walks `slots` display slots of the clip, one picture each —
// deleted, lost or decoded alike, so a fault or switch storm cannot
// stall the tick loop.  The layer selector picks each picture's layer
// (always 0 on a single-stream clip); the Input Selector's NAL deletion
// happens here, before the link, so a deleted slice never costs network
// bytes.  Layer_bytes counts exactly the slice bytes handed to the link
// — the bytes-on-wire the benches compare against deletion-only
// shedding.
void Session::send_pictures(std::size_t slots, const adaptive::ModeConfig& mc) {
  const bool sim = cfg_.simulcast.enabled;
  for (std::size_t s = 0; s < slots; ++s) {
    if (pic_ >= clip_->pictures()) {
      // Clip wrap: new generation (the receiver swaps in a fresh decoder
      // when it sees it), fresh selector cadence, and a re-join.
      pic_ = 0;
      ++send_gen_;
      send_au_ = 0;
      layer_valid_ = false;
      selector_.reset();
    }
    const std::size_t layer = layer_selector_.on_picture(clip_->idr_at(pic_));
    const simulcast::LayerStream& stream = clip_->layer(layer);
    au_count_ = 0;
    if (!layer_valid_ || layer != cur_layer_) {
      // Join (first picture, wrap or layer switch).  Deletion thresholds
      // are layer-relative: S_th calibrated for the top layer rescales
      // by this layer's mean P/B slice size.  The layer's parameter sets
      // ship in front of the slice so the receiver can retune.
      cur_layer_ = layer;
      layer_valid_ = true;
      selector_.set_layer_scale(clip_->selector_scale(layer));
      if (sim && cfg_.record_trace) {
        layer_trace_.emplace_back(pic_global_,
                                  static_cast<std::uint8_t>(layer));
      }
      for (const h264::NalUnit& p : stream.params) send_unit(p, layer);
    }
    const h264::NalUnit& nal = stream.slices[pic_];
    ++pic_;
    ++pic_global_;
    if (sim) ++stats_.layer_pictures[layer];
    if (mc.delete_nals && !selector_.keeps(nal)) {
      ++stats_.nals_deleted;
    } else {
      send_unit(nal, layer);
      if (sim) stats_.layer_bytes[layer] += nal.byte_size();
    }
    if (link_ && au_count_ > 0) {
      link_->send(std::span<const h264::NalUnit>(au_.data(), au_count_),
                  send_au_, send_gen_, local_tick_,
                  static_cast<std::uint8_t>(layer));
    }
    ++send_au_;
  }
}

// Queues one unit of the access unit being built: a copy into the
// reused access-unit ring for the transport link (copy-assign keeps
// payload capacity), or a pointer into the shared clip for the identity
// link.  Neither allocates once warm.
void Session::send_unit(const h264::NalUnit& nal, std::size_t layer) {
  if (!link_) {
    sent_.push_back(
        SentUnit{&nal, send_gen_, static_cast<std::uint8_t>(layer)});
    return;
  }
  if (au_count_ < au_.size()) {
    au_[au_count_] = nal;
  } else {
    au_.push_back(nal);
  }
  ++au_count_;
}

// Receiver: one event off the link.  Units from a lane the decoder is
// not tuned to are adopted only at a decodable entry point (SPS or IDR
// slice — exactly what the sender ships on a join); anything else from
// a stale lane is skipped, as are its loss events — a loss on a lane we
// stopped watching is not a resync cue.  Declared losses reach the
// decoder as resync cues: a dropped packet yields *missing* data, not
// malformed data, so without notify_loss it would drift silently.
void Session::receive_unit(bool loss, std::uint8_t layer,
                           std::uint32_t generation, const h264::NalUnit& nal,
                           bool deblock) {
  const bool tuned = rx_layer_valid_ && layer == rx_layer_;
  if (loss) {
    if (!tuned) return;
    decoder_.notify_loss();
    ++stats_.nals_lost;
    return;
  }
  if (!tuned) {
    if (nal.type != h264::NalType::kSps &&
        nal.type != h264::NalType::kSliceIdr) {
      return;
    }
    rx_layer_ = layer;
    rx_layer_valid_ = true;
    rx_gen_ = generation;
    decoder_.reset(h264::DecoderConfig{deblock, /*resilient=*/true});
  } else if (generation != rx_gen_) {
    rx_gen_ = generation;
    decoder_.reset(h264::DecoderConfig{deblock, /*resilient=*/true});
  }
  if (fault_plan_.enabled()) {
    if (auto faulted =
            fault::maybe_fault_nal(nal, fault_plan_, fault_counts_)) {
      for (const h264::NalUnit& u : *faulted) decode_unit(u);
      return;
    }
  }
  decode_unit(nal);
}

// Decodes one unit, digesting decoded pixels.  A slice that yields no
// picture (erred, or skipped during resync) counts as a lost picture.
void Session::decode_unit(const h264::NalUnit& unit) {
  const std::uint64_t errs_before = decoder_.activity().nal_errors;
  if (auto pic = decoder_.decode_nal(unit)) {
    digest_ = h264::frame_digest(digest_, pic->frame);
    decoder_.recycle(std::move(pic->frame));
    ++stats_.frames_decoded;
    return;
  }
  if (h264::is_slice(unit)) {
    ++stats_.pictures_lost;
    if (decoder_.activity().nal_errors != errs_before) {
      ++stats_.decode_errors;
    }
  }
}

// Evaluates the switch policy over this tick's context and applies the
// downswitch-before-shed override: a shed verdict from the server first
// becomes a request for the bottom layer, and only a session already
// locked there (switch complete, nothing pending) actually drops frames.
bool Session::sim_request_layer(std::size_t budget, int degrade_level,
                                bool shed) {
  simulcast::ContextVector ctx;
  ctx.pressure = degrade_level;
  if (link_) {
    const net::TransportStats ts = link_->stats();
    const std::uint64_t sent = ts.packets_sent + ts.parity_sent;
    ctx.loss_rate = sent != 0 ? static_cast<double>(ts.packets_lost) /
                                    static_cast<double>(sent)
                              : 0.0;
  }
  const power::DeviceState dev =
      power::device_state_at(cfg_.simulcast.device, local_tick_);
  ctx.battery = dev.battery;
  ctx.thermal_headroom = dev.thermal_headroom;
  ctx.speaker_role = speaker_role_;
  layer_selector_.request(
      sim_policy_.target_layer(policy_mode_, ctx, clip_->layer_count()));
  if (shed) {
    if (layer_selector_.current() == 0 && !layer_selector_.waiting()) {
      return true;
    }
    layer_selector_.request(0);
    stats_.frames_downswitched += budget;
    return false;
  }
  return shed;
}

void Session::sim_sync_counters() {
  const simulcast::LayerSelectorStats& st = layer_selector_.stats();
  stats_.layer_switches = st.switches_completed;
  stats_.layer_wait_pictures = st.pictures_waited;
}

SessionReport Session::report() const {
  SessionReport rep;
  rep.session_id = id_;
  rep.windows = windows_;
  rep.stable_trace = stable_trace_;
  rep.layer_trace = layer_trace_;
  if (cfg_.simulcast.enabled) rep.layer_selector = layer_selector_.stats();
  rep.decode_digest = digest_;
  rep.stats = stats_;
  rep.realtime = pipeline_.stats();
  if (pm_) rep.apps = pm_->metrics();
  if (link_) rep.transport = link_->stats();
  return rep;
}

}  // namespace affectsys::serve
