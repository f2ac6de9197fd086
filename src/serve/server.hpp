// SessionManager: the multi-tenant session server.  Runs N concurrent
// end-to-end sessions in one process on the existing thread pool, with
// cross-session batched inference, admission control and graceful load
// shedding.
//
// One tick is three stages (plus the due list and, with rooms, R):
//   A. audio, in three steps:
//        ingest  Session::ingest_audio over every due session
//                (parallel_for; session state is private, shared state
//                read-only) — surviving windows are recorded, not
//                extracted;
//        rows    one flat parallel_for over the feature rows every
//                window recorded this tick still needs, across
//                sessions, in 16-row blocks, so a window's rows spread
//                over the pool;
//        finish  Session::finish_windows over every due session
//                (parallel_for): reused rows copied, standardized,
//                staged for the batcher;
//   B. collect staged windows in session-id order (serial, so batch
//      assembly is deterministic) into the one InferenceBatcher, flush
//      one batch of at most max_batch rows (the service capacity per
//      tick) and route the results back, so a label is applied before
//      this tick's stage C picks a decoder mode (serial — the model's
//      activation caches make inference non-reentrant),
//   C. tick_media over every due session (parallel_for) under the
//      current degrade level.
// Each stage times itself into the registry (serve.stage_*_ns), and the
// stage timers add up to serve.tick_ns; stage C also times each
// session's tick_media (serve.session_media_ns).
//
// Scheduling: a hierarchical timer wheel (core/timer_wheel) holds one
// wake-up entry per session, and a tick only touches the sessions the
// wheel hands back — every open session for an always-on fleet, O(due)
// for a mostly-idle (duty-cycled) one.  Sessions run on their *local*
// tick clock, which advances only when they run, so a session's
// per-run behaviour is independent of how long it slept.  Batch
// capacity is batcher.max_batch; each window's result is bit-identical
// whatever batch it rides in (the batcher's contract), so raising it
// changes capacity, never output.
//
// Determinism: nothing in the control loop reads a wall clock (the
// label-age metric does, and nothing reads it back).  A staged window
// is classified the same tick unless max_batch rows were already
// served, and the degrade level is a pure function of the global
// backlog vs. the watermarks — so an overloaded run is exactly
// replayable under a fixed seed, which is what the shedding tests
// assert.
//
// Load shedding ladder (cheapest first), per the paper's own
// affect-adaptive knobs before anything user-visible is dropped:
//   level 0: every session runs its affect-chosen mode;
//   level 1: NAL deletion forced on (Standard->Deletion,
//            DeblockOff->Combined);
//   level 2: Combined forced (deletion + deblocking off);
//   level 3: this tick's frames shed outright.
// Per-session window backpressure is separate: each session's
// RealtimePipeline drops the newest window once max_inflight are
// outstanding, so one chatty tenant cannot monopolize the batcher.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "conf/room.hpp"
#include "core/buffer_pool.hpp"
#include "core/timer_wheel.hpp"
#include "serve/batcher.hpp"
#include "serve/session.hpp"
#include "serve/workload.hpp"

namespace affectsys::serve {

/// Typed admission failure: thrown by create_session() once the server
/// is at capacity.  Callers treat this as backpressure, not a bug.
class AdmissionError : public std::runtime_error {
 public:
  AdmissionError(std::size_t open, std::size_t limit)
      : std::runtime_error("session server at capacity: " +
                          std::to_string(open) + "/" +
                          std::to_string(limit) + " sessions open"),
        open_(open),
        limit_(limit) {}

  std::size_t open_sessions() const { return open_; }
  std::size_t limit() const { return limit_; }

 private:
  std::size_t open_;
  std::size_t limit_;
};

struct ServerConfig {
  /// Admission limit: create_session() past this throws AdmissionError.
  std::size_t max_sessions = 64;
  /// Global backlog watermarks (windows staged + in flight, summed over
  /// sessions).  Crossing `hi` raises the degrade level one step per
  /// tick; falling below `lo` lowers it one step per tick.  The
  /// hysteresis gap keeps the ladder from oscillating every tick.
  std::size_t backlog_hi = 48;
  std::size_t backlog_lo = 16;
  BatcherConfig batcher{};
  /// Defaults applied to sessions created without an explicit config
  /// (seed is replaced by a per-session value derived from the id).
  SessionConfig session{};
  /// Error-budget ladder, alongside the backlog ladder: a session whose
  /// pipeline faults (decode errors + dropped audio chunks) exceed
  /// `error_budget` within a rolling `error_window_ticks` window is
  /// quarantined — skipped by every tick stage for `quarantine_ticks`
  /// ticks, its in-flight batcher results dropped on arrival — then
  /// auto-restarted from its admission config (same id, same seed,
  /// fresh state).  error_budget == 0 disables the ladder.
  std::uint64_t error_budget = 0;
  std::uint64_t error_window_ticks = 50;
  std::uint64_t quarantine_ticks = 20;
  /// Server-level fault injection (kBatcherFallback fires here); the
  /// per-session kinds ride in each session's own config.
  fault::FaultConfig fault{};
  /// Unread (serve/ladder.hpp); kept for callers that assign it.
  LadderConfig ladder{};
};

struct ServerStats {
  std::uint64_t ticks = 0;
  std::uint64_t sessions_created = 0;
  std::uint64_t sessions_closed = 0;
  std::uint64_t sessions_rejected = 0;
  std::uint64_t results_routed = 0;
  std::uint64_t degrade_ticks = 0;  ///< ticks spent at level >= 1
  int max_degrade_level = 0;
  // Error-budget ladder (zero unless ServerConfig::error_budget is set).
  std::uint64_t sessions_quarantined = 0;
  std::uint64_t sessions_restarted = 0;
  std::uint64_t results_dropped_quarantined = 0;
  // Conference rooms.
  std::uint64_t rooms_created = 0;
  /// Session-ticks actually executed (sum of due-list sizes).  Equals
  /// ticks * open_sessions for an always-on fleet; far smaller for a
  /// duty-cycled one — the bench's idling evidence.
  std::uint64_t session_runs = 0;
};

class SessionManager {
 public:
  /// The env members (workload, classifier, optional app table/catalog)
  /// must outlive the manager.
  SessionManager(const ServerConfig& cfg, const SessionEnv& env);

  /// Admits a new session, or throws AdmissionError at capacity.
  /// Returns the session id (monotonic; never reused even after
  /// close_session frees the capacity slot).
  SessionId create_session(const SessionConfig& cfg);
  /// Admits with the server's default session config and a seed derived
  /// from the new id.
  SessionId create_session();

  /// Creates a conference room.  Members join via the create_session
  /// overload below; the room's active-speaker detector runs as a
  /// serial stage between audio and media in tick(), so every member's
  /// speaker role is set before its switch policy is evaluated.
  conf::RoomId create_room(const conf::RoomConfig& cfg = {});
  /// Admits a session INTO a room: requires simulcast (the multiplexer
  /// pins non-dominant speakers to lower rungs, which needs a ladder)
  /// and, when the session uses the default policy, swaps in the
  /// conference table (role rows).  Throws std::out_of_range for
  /// unknown rooms, std::invalid_argument without simulcast, and
  /// AdmissionError at capacity — membership is only recorded once the
  /// session is actually admitted.
  SessionId create_session(const SessionConfig& cfg, conf::RoomId room);

  bool has_room(conf::RoomId id) const { return rooms_.contains(id); }
  std::size_t open_rooms() const { return rooms_.size(); }
  /// Throws std::out_of_range for unknown rooms.
  const conf::Room& room(conf::RoomId id) const;
  conf::RoomReport room_report(conf::RoomId id) const;

  /// Closes a session, freeing its admission slot.  Results still in
  /// the batcher for it are dropped on arrival.  Throws
  /// std::out_of_range for unknown ids.
  void close_session(SessionId id);

  bool has_session(SessionId id) const { return sessions_.contains(id); }
  std::size_t open_sessions() const { return sessions_.size(); }

  /// Advances every open session by one tick (stages A/B/C above).
  void tick();

  /// Runs the batcher dry: flushes until no windows are pending and
  /// routes everything back.  Call after the last tick so reports see
  /// every staged window applied.
  void drain();

  /// Snapshot of one session's run; throws std::out_of_range for
  /// unknown (including closed) ids.
  SessionReport report(SessionId id) const;
  const Session& session(SessionId id) const;

  /// True while a session is serving its quarantine (still admitted,
  /// not ticked; auto-restarts when the quarantine expires).
  bool is_quarantined(SessionId id) const;

  int degrade_level() const { return degrade_level_; }
  /// Windows pending inference at the batcher (after stage B every
  /// session's staging buffer is empty, so this is the whole backlog).
  std::size_t backlog() const { return batcher_->pending(); }
  const ServerStats& stats() const { return stats_; }
  const BatcherStats& batcher_stats() const { return batcher_->stats(); }
  const ServerConfig& config() const { return cfg_; }
  /// The pool backing staged feature windows (for allocation tests).
  const core::BufferPool& feature_pool() const { return *feature_pool_ptr_; }

 private:
  /// One admitted tenant: the live session plus the quarantine state
  /// and the config needed to auto-restart it.
  struct Slot {
    std::unique_ptr<Session> session;
    SessionConfig cfg;  ///< admission config, for restart
    bool quarantined = false;
    std::uint64_t release_tick = 0;       ///< first tick after quarantine
    std::uint64_t window_start_tick = 0;  ///< rolling error-window origin
    std::uint64_t window_start_errors = 0;
    /// Batcher results still in flight at quarantine time; dropped on
    /// arrival so a restarted session never sees a stale window.
    std::size_t results_to_drop = 0;
    /// Room membership (0 = none).  Survives quarantine restarts: the
    /// fresh session rejoins the same room under the same id.
    conf::RoomId room = 0;
    /// Wheel state: the tick of this slot's one valid wake entry (stale
    /// wheel entries fail the comparison and are ignored) and the last
    /// tick it was put on the due list (dedup).
    std::uint64_t next_wake = 0;
    std::uint64_t last_run = std::numeric_limits<std::uint64_t>::max();
  };

  // Wheel keys: (kind << 56) | session id.  Quarantine releases sort
  // (and therefore run) before wake-ups on the same tick, so a freshly
  // restarted session joins this tick's due list.
  static constexpr std::uint64_t kKindShift = 56;
  static std::uint64_t wake_key(SessionId id) {
    return (std::uint64_t{1} << kKindShift) | id;
  }
  static std::uint64_t quarantine_key(SessionId id) { return id; }

  void build_due();
  void tick_rooms();
  void restart_slot(SessionId id, Slot& slot);
  /// Applies each result to its session and records the label's age
  /// (serve.label_latency_ticks, serve.label_latency_ns).
  void route(std::span<const RoutedResult> results);
  /// A routed label's age in ns: the ticks since its window was staged
  /// times the session's tick_s, plus the wall time since route_t0_.
  double label_age_ns(const RoutedResult& r, double tick_s) const;
  void update_degrade_level();
  void update_error_budget();
  static std::uint64_t session_errors(const Session& s);

  ServerConfig cfg_;
  SessionEnv env_;

  // Pooled feature staging (built here when the caller's env leaves it
  // null; env_ is patched to point at it before any session is
  // created).  Declared BEFORE the batcher and the session map:
  // sessions' staging rings and the batcher hold BufferRefs pooled from
  // feature_pool_, so the pool must be destroyed after them (members
  // destroy in reverse declaration order).
  std::unique_ptr<core::BufferPool> feature_pool_;
  core::BufferPool* feature_pool_ptr_ = nullptr;

  std::unique_ptr<InferenceBatcher> batcher_;
  /// Ordered by id: iteration order (and thus batch assembly and
  /// parallel_for indexing) is deterministic.
  std::map<SessionId, Slot> sessions_;
  /// Conference rooms, ordered by id (the room stage ticks them in this
  /// order — deterministic).  unique_ptr: Room pins cached obs handles.
  std::map<conf::RoomId, std::unique_ptr<conf::Room>> rooms_;
  conf::RoomId next_room_ = 1;
  fault::FaultPlan fault_plan_;  ///< server-level faults (batcher)
  fault::FaultCounts fault_counts_;
  SessionId next_id_ = 1;
  std::uint64_t now_tick_ = 0;
  /// Start of the tick (or drain) that is routing results; read only by
  /// label_age_ns, never by the control loop.
  std::chrono::steady_clock::time_point route_t0_{};
  int degrade_level_ = 0;
  ServerStats stats_;

  // Scheduling.
  core::TimerWheel wheel_;
  std::vector<std::uint64_t> due_keys_;  ///< collect() scratch

  // Per-tick scratch (capacity reused across ticks).
  std::vector<Session*> order_;        ///< merged due list, id-ascending
  std::vector<RoutedResult> results_;  ///< flush_into() scratch
  std::vector<affect::RowJob> row_jobs_;  ///< stage A row step, id order
  std::vector<std::size_t> row_ends_;     ///< running row count per job
};

}  // namespace affectsys::serve
