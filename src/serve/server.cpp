#include "serve/server.hpp"

#include <algorithm>
#include <chrono>

#include "core/thread_pool.hpp"
#include "obs/metrics.hpp"

namespace affectsys::serve {
namespace {

/// Stage A's row-step grain: rows per pool chunk.
constexpr std::size_t kRowBlock = 16;

/// Runs rows [lo, hi) of the flat row range `jobs` spans (`ends` holds
/// each job's running row count).
void run_rows(const affect::FeatureExtractor& fx,
              std::span<const affect::RowJob> jobs,
              std::span<const std::size_t> ends, std::size_t lo,
              std::size_t hi) {
  std::size_t j = static_cast<std::size_t>(
      std::upper_bound(ends.begin(), ends.end(), lo) - ends.begin());
  for (; lo < hi; ++j) {
    const affect::RowJob& job = jobs[j];
    const std::size_t first = ends[j] - (job.end - job.begin);
    const std::size_t last = std::min(hi, ends[j]);
    fx.compute_rows(job.samples, job.begin + (lo - first),
                    job.begin + (last - first), *job.raw);
    lo = last;
  }
}

}  // namespace

SessionManager::SessionManager(const ServerConfig& cfg, const SessionEnv& env)
    : cfg_(cfg),
      env_(env),
      fault_plan_(cfg.fault) {
  if (cfg_.max_sessions == 0) {
    throw std::invalid_argument("SessionManager: max_sessions must be >= 1");
  }
  if (cfg_.backlog_lo > cfg_.backlog_hi) {
    throw std::invalid_argument(
        "SessionManager: backlog_lo must not exceed backlog_hi");
  }
  if (env_.workload == nullptr || env_.classifier == nullptr) {
    throw std::invalid_argument(
        "SessionManager: workload and classifier required");
  }

  batcher_ = std::make_unique<InferenceBatcher>(*env_.classifier,
                                                cfg_.batcher);

  // Pool backing staged feature windows: one block holds one window's
  // feature matrix.  Sized for a busy fleet's worst realistic backlog;
  // exhaustion degrades to per-request heap buffers, never failure.
  if (env_.feature_pool == nullptr) {
    const affect::FeatureConfig& fc = env_.classifier->feature_config();
    core::BufferPoolConfig pc;
    pc.block_size =
        fc.timesteps * (fc.mfcc.num_coeffs + 4) * sizeof(float);
    pc.blocks = std::clamp<std::size_t>(4 * cfg_.max_sessions + 64, 128, 4096);
    feature_pool_ = std::make_unique<core::BufferPool>(pc);
    env_.feature_pool = feature_pool_.get();
  }
  feature_pool_ptr_ = env_.feature_pool;

  results_.resize(cfg_.batcher.max_batch);
}

SessionId SessionManager::create_session(const SessionConfig& cfg) {
  if (sessions_.size() >= cfg_.max_sessions) {
    ++stats_.sessions_rejected;
    AFFECTSYS_COUNT("serve.sessions_rejected", 1);
    throw AdmissionError(sessions_.size(), cfg_.max_sessions);
  }
  const SessionId id = next_id_++;
  Slot slot;
  slot.session = std::make_unique<Session>(id, cfg, env_,
                                           /*inline_inference=*/false,
                                           /*start_tick=*/now_tick_);
  slot.cfg = cfg;
  slot.window_start_tick = now_tick_;
  slot.next_wake = now_tick_;
  wheel_.schedule_at(now_tick_, wake_key(id));
  sessions_.emplace(id, std::move(slot));
  ++stats_.sessions_created;
  AFFECTSYS_COUNT("serve.sessions_created", 1);
  AFFECTSYS_GAUGE_SET("serve.sessions_open",
                      static_cast<double>(sessions_.size()));
  return id;
}

SessionId SessionManager::create_session() {
  SessionConfig cfg = cfg_.session;
  cfg.seed = static_cast<unsigned>(next_id_);
  return create_session(cfg);
}

conf::RoomId SessionManager::create_room(const conf::RoomConfig& cfg) {
  const conf::RoomId id = next_room_++;
  conf::RoomConfig rc = cfg;
  if (rc.obs_scope.empty()) {
    rc.obs_scope = "serve.room" + std::to_string(id);
  }
  rooms_.emplace(id, std::make_unique<conf::Room>(id, rc));
  ++stats_.rooms_created;
  AFFECTSYS_COUNT("serve.rooms_created", 1);
  return id;
}

SessionId SessionManager::create_session(const SessionConfig& cfg,
                                         conf::RoomId room) {
  const auto rit = rooms_.find(room);
  if (rit == rooms_.end()) {
    throw std::out_of_range("SessionManager: unknown room id");
  }
  if (!cfg.simulcast.enabled) {
    throw std::invalid_argument(
        "SessionManager: room members need simulcast (the multiplexer "
        "pins speakers to ladder rungs)");
  }
  SessionConfig c = cfg;
  // The default policy becomes the conference table; an explicit policy
  // is the caller's to shape (the fuzz suite feeds random ones).
  c.simulcast.conference = true;
  const SessionId id = create_session(c);  // may throw AdmissionError
  sessions_.at(id).room = room;
  rit->second->add(id);
  return id;
}

const conf::Room& SessionManager::room(conf::RoomId id) const {
  const auto it = rooms_.find(id);
  if (it == rooms_.end()) {
    throw std::out_of_range("SessionManager: unknown room id");
  }
  return *it->second;
}

conf::RoomReport SessionManager::room_report(conf::RoomId id) const {
  return room(id).report();
}

void SessionManager::close_session(SessionId id) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    throw std::out_of_range("SessionManager: unknown session id");
  }
  if (it->second.room != 0) {
    const auto rit = rooms_.find(it->second.room);
    if (rit != rooms_.end()) rit->second->remove(id);
  }
  // Any wheel entry the slot still has goes stale and is ignored when
  // it fires (no matching slot / next_wake mismatch).
  sessions_.erase(it);
  ++stats_.sessions_closed;
  AFFECTSYS_COUNT("serve.sessions_closed", 1);
  AFFECTSYS_GAUGE_SET("serve.sessions_open",
                      static_cast<double>(sessions_.size()));
}

bool SessionManager::is_quarantined(SessionId id) const {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    throw std::out_of_range("SessionManager: unknown session id");
  }
  return it->second.quarantined;
}

void SessionManager::update_degrade_level() {
  // One step per tick in either direction: the ladder reacts within a
  // few ticks but cannot thrash inside the hysteresis band.
  const std::size_t b = backlog();
  if (b >= cfg_.backlog_hi) {
    degrade_level_ = std::min(degrade_level_ + 1, kFrameShedLevel);
  } else if (b <= cfg_.backlog_lo && degrade_level_ > 0) {
    --degrade_level_;
  }
  stats_.max_degrade_level = std::max(stats_.max_degrade_level,
                                      degrade_level_);
  if (degrade_level_ > 0) ++stats_.degrade_ticks;
  AFFECTSYS_GAUGE_SET("serve.degrade_level",
                      static_cast<double>(degrade_level_));
  AFFECTSYS_GAUGE_SET("serve.backlog", static_cast<double>(b));
}

std::uint64_t SessionManager::session_errors(const Session& s) {
  return s.stats().decode_errors + s.stats().chunks_dropped;
}

void SessionManager::update_error_budget() {
  if (cfg_.error_budget == 0) return;
  for (auto& [id, slot] : sessions_) {
    if (slot.quarantined) continue;
    if (now_tick_ - slot.window_start_tick >= cfg_.error_window_ticks) {
      slot.window_start_tick = now_tick_;
      slot.window_start_errors = session_errors(*slot.session);
    }
    const std::uint64_t in_window =
        session_errors(*slot.session) - slot.window_start_errors;
    if (in_window > cfg_.error_budget) {
      slot.quarantined = true;
      slot.release_tick = now_tick_ + 1 + cfg_.quarantine_ticks;
      slot.results_to_drop = slot.session->inflight();
      ++stats_.sessions_quarantined;
      AFFECTSYS_COUNT("serve.sessions_quarantined", 1);
      wheel_.schedule_at(slot.release_tick, quarantine_key(id));
    }
  }
}

void SessionManager::route(std::span<const RoutedResult> results) {
  for (const RoutedResult& r : results) {
    const auto it = sessions_.find(r.session);
    // A result for a since-closed session is dropped; its slot owner is
    // gone and nobody is waiting.
    if (it == sessions_.end()) continue;
    Slot& slot = it->second;
    if (slot.results_to_drop > 0) {
      // Stale window from before a quarantine: the session that staged
      // it was (or is about to be) replaced.
      --slot.results_to_drop;
      ++stats_.results_dropped_quarantined;
      AFFECTSYS_COUNT("serve.results_dropped_quarantined", 1);
      continue;
    }
    slot.session->apply_result(r);
    ++stats_.results_routed;
    AFFECTSYS_OBSERVE("serve.label_latency_ticks",
                      static_cast<double>(now_tick_ - r.enqueue_tick));
    AFFECTSYS_OBSERVE("serve.label_latency_ns",
                      label_age_ns(r, slot.cfg.tick_s));
  }
}

double SessionManager::label_age_ns(const RoutedResult& r,
                                    double tick_s) const {
  const auto wall = std::chrono::steady_clock::now() - route_t0_;
  return static_cast<double>(now_tick_ - r.enqueue_tick) * tick_s * 1e9 +
         static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(wall)
                 .count());
}

void SessionManager::restart_slot(SessionId id, Slot& slot) {
  slot.session = std::make_unique<Session>(id, slot.cfg, env_,
                                           /*inline_inference=*/false,
                                           /*start_tick=*/now_tick_);
  slot.quarantined = false;
  slot.window_start_tick = now_tick_;
  slot.window_start_errors = 0;
  ++stats_.sessions_restarted;
  AFFECTSYS_COUNT("serve.sessions_restarted", 1);
}

// Due list: only the keys the wheel fires are touched.  A wake
// key is honoured iff its slot still exists, is not quarantined, and
// scheduled exactly this wake (next_wake == now) — anything else is a
// stale entry from a closed/restarted/rescheduled slot and is skipped.
// collect() returns keys ascending, so quarantine releases (kind 0)
// process before wake-ups (kind 1) and the restarted session joins this
// tick's due list; last_run dedups a same-tick release + stale wake.
void SessionManager::build_due() {
  due_keys_.clear();
  wheel_.collect(now_tick_, due_keys_);
  for (const std::uint64_t key : due_keys_) {
    const SessionId id = key & ((std::uint64_t{1} << kKindShift) - 1);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) continue;
    Slot& slot = it->second;
    const bool is_wake = (key >> kKindShift) != 0;
    if (is_wake) {
      if (slot.quarantined || slot.next_wake != now_tick_ ||
          slot.last_run == now_tick_) {
        continue;
      }
    } else {
      if (!slot.quarantined || now_tick_ < slot.release_tick) continue;
      restart_slot(id, slot);
      slot.next_wake = now_tick_;
    }
    slot.last_run = now_tick_;
    order_.push_back(slot.session.get());
  }
  // Keys arrive (quarantine..., wake...) each id-ascending within kind;
  // batch assembly wants one id-ascending list.
  std::sort(order_.begin(), order_.end(),
            [](const Session* a, const Session* b) { return a->id() < b->id(); });
}

// Stage R (serial, between stages A and B): conference dominance.
// Observations walk this tick's due list in id order (a member not due
// — sleeping on the wheel or quarantined — is unobserved and decays as
// silent), rooms tick in ascending room id, and roles copy back into
// the sessions before stage C evaluates any switch policy.  The stage
// consults NO fault plan: room-level sites would sit between stage A's
// audio sites and stage C's net/NAL sites in every member's stream, so
// keeping the stage plan-free is what lets pre-conference fault
// schedules replay unchanged (the consultation-order contract below is
// not renumbered).  Roles only retarget the per-session LayerSelector,
// so the switch-only-at-IDR invariant and the per-speaker transport
// lanes (jitter/FEC state) are untouched by dominance moves.
void SessionManager::tick_rooms() {
  for (Session* s : order_) {
    const Slot& slot = sessions_.at(s->id());
    if (slot.room != 0) {
      rooms_.at(slot.room)->observe(s->id(), s->audio_energy(),
                                    s->affect_confidence());
    }
  }
  for (auto& [rid, room] : rooms_) room->tick(now_tick_);
  for (Session* s : order_) {
    const Slot& slot = sessions_.at(s->id());
    if (slot.room != 0) {
      s->set_speaker_role(rooms_.at(slot.room)->role(s->id()));
    }
  }
}

// Fault consultation contract (replay identity depends on this):
// every plan is consulted at a FIXED per-tick site order, and every
// site passes a mask DISJOINT from every other suite's sites.
//
//   per-session plan (one logical stream, session ticked serially):
//     1. stage A  ingest_audio:         kSessionStall site, then the
//                                       kAudioKinds chunk site;
//     2. stage C  tick_media sender:    kNetKinds site per packet sent
//                                       (transport link only), then
//     3.          tick_media receiver:  kNalUnitKinds site per NAL
//                                       reaching the decoder.
//   server plan: one kBatcherFallback site in stage B, consulted once
//   per tick.  A session's plan advances only on ticks the session
//   actually runs (its sites live inside its own stages), so per-session
//   fault schedules are a function of the session's local tick —
//   identical whether it runs every tick or sleeps on the wheel, and
//   whatever the pool's thread count.
//
// Because the masks are disjoint and a non-intersecting consultation
// never advances the RNG (FaultPlan::next), two identities hold by
// construction, not by test luck: a rate-0 run is byte-identical to a
// no-fault-code run, and enabling one suite's kinds cannot perturb the
// decision stream any other suite draws — e.g. pre-transport plans
// replay unchanged with kNetKinds compiled in (tests/test_net.cpp
// pins both).
void SessionManager::tick() {
  AFFECTSYS_TIME_SCOPE("serve.tick_ns");
  route_t0_ = std::chrono::steady_clock::now();
  ++stats_.ticks;

  {  // Stage 0 (serial): build this tick's due list.
    AFFECTSYS_TIME_SCOPE("serve.stage_due_ns");
    order_.clear();
    build_due();
    stats_.session_runs += order_.size();
  }

  // Stage A: audio in three steps (see the header).  The due list's
  // indexing keeps parallel_for's chunking stable; rows are pure
  // functions of their frames, so the row step's split cannot change a
  // byte either.
  {
    AFFECTSYS_TIME_SCOPE("serve.stage_ingest_ns");
    core::parallel_for(0, order_.size(), 1, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) order_[i]->ingest_audio(now_tick_);
    });
  }
  {
    AFFECTSYS_TIME_SCOPE("serve.stage_rows_ns");
    row_jobs_.clear();
    row_ends_.clear();
    for (Session* s : order_) s->add_row_jobs(row_jobs_);
    std::size_t rows = 0;
    for (const affect::RowJob& job : row_jobs_) {
      rows += job.end - job.begin;
      row_ends_.push_back(rows);
    }
    const affect::FeatureExtractor& fx = env_.classifier->features();
    core::parallel_for(0, rows, kRowBlock, [&](std::size_t b, std::size_t e) {
      run_rows(fx, row_jobs_, row_ends_, b, e);
    });
  }
  {
    AFFECTSYS_TIME_SCOPE("serve.stage_finish_ns");
    core::parallel_for(0, order_.size(), 1, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) order_[i]->finish_windows();
    });
  }

  // Stage R: room dominance (serial; see tick_rooms above).
  if (!rooms_.empty()) {
    AFFECTSYS_TIME_SCOPE("serve.stage_rooms_ns");
    tick_rooms();
  }

  {  // Stage B: deterministic batch assembly (sessions in id order) +
     // serialized inference.
    AFFECTSYS_TIME_SCOPE("serve.stage_infer_ns");
    for (Session* s : order_) s->drain_staged(*batcher_);
    if (fault_plan_.enabled()) {
      const bool fallback =
          fault_plan_.next(fault::kind_bit(fault::FaultKind::kBatcherFallback))
              .has_value();
      if (fallback) fault_counts_.record(fault::FaultKind::kBatcherFallback);
      batcher_->force_fallback(fallback);
    }
    // The service capacity is one max_batch-row flush per tick, so
    // sustained offered load beyond that grows the backlog and trips the
    // shedding watermarks instead of silently stretching the tick.
    if (batcher_->should_flush(now_tick_)) {
      route({results_.data(), batcher_->flush_into(results_)});
    }
    update_degrade_level();
  }

  {  // Stage C: media in parallel under the shared degrade level.  Each
     // session's share is timed here, not in Session, so standalone
     // sessions record nothing.
    AFFECTSYS_TIME_SCOPE("serve.stage_media_ns");
    const int level = degrade_level_;
    core::parallel_for(0, order_.size(), 1, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        AFFECTSYS_TIME_SCOPE("serve.session_media_ns");
        order_[i]->tick_media(now_tick_, level);
      }
    });
  }

  {  // The due list's other half: the error budget and the wheel.
    AFFECTSYS_TIME_SCOPE("serve.stage_reschedule_ns");
    // Error-budget ladder (serial): offenders spend the next
    // quarantine_ticks ticks benched, then restart fresh.
    update_error_budget();

    // Reschedule: every session that ran (and was not just quarantined)
    // files its next wake-up.  Quarantined slots already filed their
    // release key in update_error_budget().
    for (Session* s : order_) {
      const auto it = sessions_.find(s->id());
      if (it == sessions_.end() || it->second.quarantined) continue;
      const std::uint64_t at = now_tick_ + s->next_wake_delay();
      it->second.next_wake = at;
      wheel_.schedule_at(at, wake_key(s->id()));
    }
  }

  ++now_tick_;
}

void SessionManager::drain() {
  route_t0_ = std::chrono::steady_clock::now();
  while (batcher_->pending() > 0) {
    const std::size_t n = batcher_->flush_into(results_);
    route({results_.data(), n});
  }
}

const Session& SessionManager::session(SessionId id) const {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    throw std::out_of_range("SessionManager: unknown session id");
  }
  return *it->second.session;
}

SessionReport SessionManager::report(SessionId id) const {
  return session(id).report();
}

}  // namespace affectsys::serve
