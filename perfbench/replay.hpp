// Traced replay of one workload: the same sessions, admitted on the same
// ticks as the untraced run, driven through the serve layer's public
// per-stage calls in the order SessionManager::tick documents —
//   due list  every session, or core::TimerWheel on wheel workloads;
//   stage A   Session::pump_audio, in parallel;
//   stage R   conf::Room::observe / tick, roles copied back;
//   stage B   Session::drain_staged, InferenceBatcher::flush_into,
//             Session::apply_result;
//   stage C   Session::tick_media, in parallel —
// with a span around each stage and each call, recorded on the thread
// that made it.  It mirrors the configuration the benchmark's workloads
// use (one shard, no precision ladder, no server-level faults, no error
// budget); the benchmark checks on every traced run that the replay
// reproduced the untraced run's decode digests, label traces and room
// speaker traces exactly.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "conf/room.hpp"
#include "core/buffer_pool.hpp"
#include "core/timer_wheel.hpp"
#include "serve/batcher.hpp"
#include "serve/session.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Stage spans (kTick .. kMedia) are recorded by the thread driving the
/// tick; call spans by whichever thread made the call.  A span's cause
/// follows from its kind and tick: a stage span sits in its tick's kTick
/// span, and a call span in its tick's stage (kPumpAudio in kAudio,
/// kRoomTick in kRooms, kFlush in kInfer, kTickMedia in kMedia).
enum class SpanKind : std::uint8_t {
  kTick, kDue, kAudio, kRooms, kInfer, kMedia,
  kPumpAudio, kRoomTick, kFlush, kTickMedia,
};

/// Work-count slots a span carries:
///   kPumpAudio  windows extracted;
///   kTickMedia  pictures decoded with the deblocking filter, without it,
///               packets sent, apps launched, slots that reached the
///               Input Selector;
///   kFlush      rows classified;
///   kDue        sessions on the due list.
namespace work {
inline constexpr std::size_t kWindows = 0;
inline constexpr std::size_t kDeblockOn = 0;
inline constexpr std::size_t kDeblockOff = 1;
inline constexpr std::size_t kPackets = 2;
inline constexpr std::size_t kLaunches = 3;
inline constexpr std::size_t kSelectorSlots = 4;
inline constexpr std::size_t kRows = 0;
inline constexpr std::size_t kDueSessions = 0;
}  // namespace work

struct Span {
  SpanKind kind = SpanKind::kTick;
  std::uint8_t mode = 0;     ///< kTickMedia: effective adaptive::DecoderMode
  std::uint16_t thread = 0;  ///< recording thread, in order of first record
  std::uint32_t tick = 0;    ///< traced tick index
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
  std::array<std::uint32_t, 5> work{};

  double ms() const { return static_cast<double>(t1_ns - t0_ns) * 1e-6; }
};

/// Spans kept in memory until the run ends, where the per-layer metrics
/// are computed from them: stage spans in the driving thread's list,
/// call spans in one buffer per recording thread, so pool workers
/// append without locking.
class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  /// Opens a stage span on the driving thread and returns its index.
  std::uint32_t open(SpanKind kind, std::uint32_t tick);
  void close(std::uint32_t index, std::uint32_t work0);
  /// Appends a finished call span; safe from any thread.
  void record(Span s);

  const std::vector<Span>& stages() const { return stages_; }
  std::vector<Span> calls() const;

 private:
  using Clock = std::chrono::steady_clock;
  static constexpr std::size_t kMaxThreads = 256;
  std::uint16_t thread_slot();

  Clock::time_point origin_;
  std::uint64_t generation_;
  std::vector<Span> stages_;
  std::array<std::vector<Span>, kMaxThreads> calls_;
  std::atomic<std::size_t> threads_{0};
};

class Replay {
 public:
  explicit Replay(const World& world);
  Replay(const Replay&) = delete;
  Replay& operator=(const Replay&) = delete;

  /// Admits session `index` at the current tick as
  /// SessionManager::create_session does; indices arrive in order.
  void admit(std::size_t index);
  /// Runs one tick, recording spans into `tr` when it is non-null.
  void tick(Tracer* tr, std::uint32_t traced_tick);
  /// Flushes the batcher dry and routes every result.
  void drain();

  std::uint64_t now() const { return now_; }
  std::size_t admitted() const { return sessions_.size(); }
  const serve::Session& session(std::size_t index) const {
    return *sessions_[index];
  }
  const conf::Room& room(std::size_t index) const { return *rooms_[index]; }

  /// Over traced ticks: the largest batcher backlog stage B left, and
  /// the mean ticks a routed result waited since its window was staged.
  std::size_t backlog_max() const { return backlog_max_; }
  double label_wait_ticks_mean() const;
  /// Results routed to a session with no staged window outstanding
  /// (0 whenever the replay mirrors the server).
  std::uint64_t unmatched_results() const { return unmatched_; }

 private:
  void pump(serve::Session& s, Tracer* tr, std::uint32_t tick);
  void media(serve::Session& s, int level, Tracer* tr, std::uint32_t tick);
  void route(std::size_t n, bool traced);

  const World& world_;
  serve::SessionEnv env_;
  // Declared before everything holding pooled buffers (staging rings,
  // the batcher queue), so it is destroyed after them.
  std::unique_ptr<core::BufferPool> pool_;
  std::unique_ptr<serve::InferenceBatcher> batcher_;
  std::vector<std::unique_ptr<conf::Room>> rooms_;
  std::vector<std::unique_ptr<serve::Session>> sessions_;
  /// Per session: staging ticks of its windows still at the batcher.
  std::vector<std::deque<std::uint64_t>> staged_at_;
  core::TimerWheel wheel_;
  std::vector<std::uint64_t> due_keys_;
  std::vector<serve::Session*> order_;
  std::vector<serve::RoutedResult> results_;
  std::uint64_t now_ = 0;
  int level_ = 0;
  std::size_t backlog_max_ = 0;
  std::uint64_t waits_ = 0;
  std::uint64_t wait_ticks_ = 0;
  std::uint64_t unmatched_ = 0;
};

}  // namespace perfbench
