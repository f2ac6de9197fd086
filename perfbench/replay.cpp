#include "replay.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "adaptive/modes.hpp"
#include "core/thread_pool.hpp"

namespace perfbench {
namespace {

std::atomic<std::uint64_t> g_tracer_generation{0};

/// A stage span that closes at scope exit; inert without a tracer.
class StageSpan {
 public:
  StageSpan(Tracer* tr, SpanKind kind, std::uint32_t tick)
      : tr_(tr), index_(tr != nullptr ? tr->open(kind, tick) : 0) {}
  StageSpan(const StageSpan&) = delete;
  StageSpan& operator=(const StageSpan&) = delete;
  ~StageSpan() {
    if (tr_ != nullptr) tr_->close(index_, work_);
  }

  void set_work(std::size_t w) { work_ = static_cast<std::uint32_t>(w); }

 private:
  Tracer* tr_;
  std::uint32_t index_;
  std::uint32_t work_ = 0;
};

std::uint32_t delta(std::uint64_t after, std::uint64_t before) {
  return static_cast<std::uint32_t>(after - before);
}

}  // namespace

Tracer::Tracer()
    : origin_(Clock::now()), generation_(g_tracer_generation.fetch_add(1) + 1) {}

std::uint16_t Tracer::thread_slot() {
  thread_local std::uint64_t owner = 0;
  thread_local std::uint16_t slot = 0;
  if (owner != generation_) {
    const std::size_t s = threads_.fetch_add(1, std::memory_order_relaxed);
    if (s >= kMaxThreads) throw std::runtime_error("Tracer: too many threads");
    slot = static_cast<std::uint16_t>(s);
    owner = generation_;
  }
  return slot;
}

std::uint32_t Tracer::open(SpanKind kind, std::uint32_t tick) {
  Span s;
  s.kind = kind;
  s.tick = tick;
  s.thread = thread_slot();
  s.t0_ns = now();
  stages_.push_back(s);
  return static_cast<std::uint32_t>(stages_.size() - 1);
}

void Tracer::close(std::uint32_t index, std::uint32_t work0) {
  Span& s = stages_[index];
  s.t1_ns = now();
  s.work[0] = work0;
}

void Tracer::record(Span s) {
  s.thread = thread_slot();
  calls_[s.thread].push_back(s);
}

std::vector<Span> Tracer::calls() const {
  std::vector<Span> all;
  const std::size_t n = std::min(threads_.load(), kMaxThreads);
  for (std::size_t t = 0; t < n; ++t) {
    all.insert(all.end(), calls_[t].begin(), calls_[t].end());
  }
  return all;
}

Replay::Replay(const World& world)
    : world_(world),
      env_(world.env()),
      staged_at_(world.spec.sessions),
      results_(world.server.batcher.max_batch) {
  // The feature pool SessionManager builds for itself, same geometry.
  const affect::FeatureConfig& fc = world.classifier->feature_config();
  core::BufferPoolConfig pc;
  pc.block_size = fc.timesteps * (fc.mfcc.num_coeffs + 4) * sizeof(float);
  pc.blocks =
      std::clamp<std::size_t>(4 * world.server.max_sessions + 64, 128, 4096);
  pool_ = std::make_unique<core::BufferPool>(pc);
  env_.feature_pool = pool_.get();
  env_.ladder = &world.server.ladder;
  batcher_ = std::make_unique<serve::InferenceBatcher>(*world.classifier,
                                                       world.server.batcher);
  for (std::size_t r = 1; r <= world.spec.rooms; ++r) {
    conf::RoomConfig rc;
    rc.obs_scope = "serve.room" + std::to_string(r);
    rooms_.push_back(std::make_unique<conf::Room>(r, rc));
  }
  sessions_.reserve(world.spec.sessions);
}

void Replay::admit(std::size_t index) {
  if (index != sessions_.size()) {
    throw std::logic_error("Replay: sessions are admitted in index order");
  }
  serve::SessionConfig cfg = world_.sessions[index];
  const std::size_t room = world_.room_of(index);
  // SessionManager::create_session(cfg, room) moves room members onto
  // the conference switch-policy table.
  if (room != 0) cfg.simulcast.conference = true;
  const serve::SessionId id = index + 1;
  sessions_.push_back(std::make_unique<serve::Session>(
      id, cfg, env_, /*inline_inference=*/false, now_));
  if (world_.spec.wheel) wheel_.schedule_at(now_, id);
  if (room != 0) rooms_[room - 1]->add(id);
}

void Replay::pump(serve::Session& s, Tracer* tr, std::uint32_t tick) {
  if (tr == nullptr) {
    s.pump_audio(now_);
    return;
  }
  Span sp;
  sp.kind = SpanKind::kPumpAudio;
  sp.tick = tick;
  const std::uint64_t windows = s.stats().windows_enqueued;
  sp.t0_ns = tr->now();
  s.pump_audio(now_);
  sp.t1_ns = tr->now();
  sp.work[work::kWindows] = delta(s.stats().windows_enqueued, windows);
  tr->record(sp);
}

void Replay::media(serve::Session& s, int level, Tracer* tr,
                   std::uint32_t tick) {
  if (tr == nullptr) {
    s.tick_media(now_, level);
    return;
  }
  const serve::SessionStats before = s.stats();
  Span sp;
  sp.kind = SpanKind::kTickMedia;
  sp.tick = tick;
  sp.t0_ns = tr->now();
  s.tick_media(now_, level);
  sp.t1_ns = tr->now();
  const serve::SessionStats& after = s.stats();
  const adaptive::DecoderMode mode = s.last_effective_mode();
  const adaptive::ModeConfig mc = adaptive::mode_config(mode);
  const std::uint32_t decoded = delta(after.frames_decoded, before.frames_decoded);
  sp.mode = static_cast<std::uint8_t>(mode);
  sp.work[work::kDeblockOn] = mc.deblock ? decoded : 0;
  sp.work[work::kDeblockOff] = mc.deblock ? 0 : decoded;
  sp.work[work::kPackets] = delta(after.packets_sent, before.packets_sent);
  sp.work[work::kLaunches] = delta(after.app_launches, before.app_launches);
  if (mc.delete_nals) {
    // Slots walked past the Input Selector: forwarded layer pictures on
    // the simulcast path; decoded, deleted or lost slices in-process.
    std::uint64_t walked = 0;
    if (world_.sessions[s.id() - 1].simulcast.enabled) {
      for (std::size_t l = 0; l < after.layer_pictures.size(); ++l) {
        walked += after.layer_pictures[l] - before.layer_pictures[l];
      }
    } else {
      walked = (after.frames_decoded + after.nals_deleted + after.pictures_lost) -
               (before.frames_decoded + before.nals_deleted + before.pictures_lost);
    }
    sp.work[work::kSelectorSlots] = static_cast<std::uint32_t>(walked);
  }
  tr->record(sp);
}

void Replay::route(std::size_t n, bool traced) {
  for (std::size_t i = 0; i < n; ++i) {
    const serve::RoutedResult& r = results_[i];
    std::deque<std::uint64_t>& q = staged_at_[r.session - 1];
    if (q.empty()) {
      ++unmatched_;
    } else {
      if (traced) {
        wait_ticks_ += now_ - q.front();
        ++waits_;
      }
      q.pop_front();
    }
    sessions_[r.session - 1]->apply_result(r);
  }
}

void Replay::tick(Tracer* tr, std::uint32_t traced_tick) {
  const std::uint32_t ti = traced_tick;
  const StageSpan tick_span(tr, SpanKind::kTick, ti);

  {  // Due list: the timer wheel's due keys, or every session.  On the
     // compat scheduler this times only the replay's own loop, since
     // SessionManager::build_due_compat is private.
    StageSpan due(tr, SpanKind::kDue, ti);
    order_.clear();
    if (world_.spec.wheel) {
      due_keys_.clear();
      wheel_.collect(now_, due_keys_);  // ascending keys = ascending ids
      for (const std::uint64_t id : due_keys_) {
        order_.push_back(sessions_[id - 1].get());
      }
    } else {
      for (const auto& s : sessions_) order_.push_back(s.get());
    }
    due.set_work(order_.size());
  }

  {  // Stage A: audio and features, in parallel over the due list.
    const StageSpan stage(tr, SpanKind::kAudio, ti);
    core::parallel_for(0, order_.size(), 1, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) pump(*order_[i], tr, ti);
    });
  }

  if (!rooms_.empty()) {  // Stage R: room dominance, serial.
    const StageSpan stage(tr, SpanKind::kRooms, ti);
    for (serve::Session* s : order_) {
      if (const std::size_t r = world_.room_of(s->id() - 1); r != 0) {
        rooms_[r - 1]->observe(s->id(), s->audio_energy(),
                               s->affect_confidence());
      }
    }
    for (const auto& room : rooms_) {
      Span sp;
      sp.kind = SpanKind::kRoomTick;
      sp.tick = ti;
      if (tr != nullptr) sp.t0_ns = tr->now();
      room->tick(now_);
      if (tr != nullptr) {
        sp.t1_ns = tr->now();
        tr->record(sp);
      }
    }
    for (serve::Session* s : order_) {
      if (const std::size_t r = world_.room_of(s->id() - 1); r != 0) {
        s->set_speaker_role(rooms_[r - 1]->role(s->id()));
      }
    }
  }

  {  // Stage B: batch assembly in id order, one flush, results routed.
    const StageSpan stage(tr, SpanKind::kInfer, ti);
    for (serve::Session* s : order_) {
      std::deque<std::uint64_t>& q = staged_at_[s->id() - 1];
      q.insert(q.end(), s->outstanding() - s->inflight(), now_);
      s->drain_staged(*batcher_);
    }
    if (batcher_->should_flush(now_)) {
      Span sp;
      sp.kind = SpanKind::kFlush;
      sp.tick = ti;
      if (tr != nullptr) sp.t0_ns = tr->now();
      const std::size_t n = batcher_->flush_into(results_);
      if (tr != nullptr) {
        sp.t1_ns = tr->now();
        sp.work[work::kRows] = static_cast<std::uint32_t>(n);
        tr->record(sp);
      }
      route(n, tr != nullptr);
    }
  }

  // Degrade ladder: one step per tick on the backlog stage B left.
  const std::size_t backlog = batcher_->pending();
  if (tr != nullptr) backlog_max_ = std::max(backlog_max_, backlog);
  if (backlog >= world_.server.backlog_hi) {
    level_ = std::min(level_ + 1, serve::kFrameShedLevel);
  } else if (backlog <= world_.server.backlog_lo && level_ > 0) {
    --level_;
  }

  {  // Stage C: media, in parallel under the shared degrade level.
    const StageSpan stage(tr, SpanKind::kMedia, ti);
    const int level = level_;
    core::parallel_for(0, order_.size(), 1, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) media(*order_[i], level, tr, ti);
    });
  }

  if (world_.spec.wheel) {  // Every session that ran files its next wake-up.
    const StageSpan due(tr, SpanKind::kDue, ti);
    for (serve::Session* s : order_) {
      wheel_.schedule_at(now_ + s->next_wake_delay(), s->id());
    }
  }
  ++now_;
}

void Replay::drain() {
  while (batcher_->pending() > 0) route(batcher_->flush_into(results_), false);
}

double Replay::label_wait_ticks_mean() const {
  return waits_ == 0 ? 0.0
                     : static_cast<double>(wait_ticks_) / static_cast<double>(waits_);
}

}  // namespace perfbench
