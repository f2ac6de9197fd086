// Hierarchical timer wheel: O(1) schedule/fire of per-tick wake-ups
// for the event-driven serve layer.
//
// The serve scaling wall (BENCH_serve.json pre-PR 7) was the global
// tick visiting every admitted session three times per tick, idle or
// not.  The wheel inverts that: a session schedules its next wake-up
// tick and the server only touches the keys the wheel hands back, so
// an idle session costs one slot entry instead of three stage visits.
//
// Geometry: kLevels levels of kSlots slots, each level spanning
// kSlots^level ticks per slot (the classic hashed hierarchical wheel).
// An entry is filed at the lowest level whose span still distinguishes
// its due tick from `now`; when the clock crosses a slot boundary the
// matching higher-level slot cascades — every entry is re-filed by its
// true due tick, so a cascaded entry lands either in the level-0 slot
// firing this tick or further down the hierarchy.  Entries due beyond
// the top level's horizon are clamped into the top level and re-filed
// on each wrap until they come into range.
//
// Determinism contract: collect() returns the due keys sorted
// ascending, regardless of scheduling order or cascade history — the
// server relies on it to restart quarantined sessions before it reads
// the same tick's wake-ups.  Slot vectors keep their capacity across
// fires, so a steady-state schedule/fire cycle performs no heap
// allocation.
//
// Not thread-safe: the wheel belongs to the (serial) scheduling stage.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace affectsys::core {

class TimerWheel {
 public:
  static constexpr std::size_t kLevelBits = 8;
  static constexpr std::size_t kSlots = 1u << kLevelBits;  // 256
  static constexpr std::size_t kLevels = 3;

  /// Every slot (and the cascade scratch) is pre-reserved for a few
  /// entries, so sparse fleets never allocate after construction; dense
  /// slots grow once and keep their capacity.
  TimerWheel();

  /// Files `key` to fire at `tick`.  A tick at or before now() fires on
  /// the next collect() (late schedules never get lost).  Keys are
  /// opaque; duplicates are allowed and fire once each.
  void schedule_at(std::uint64_t tick, std::uint64_t key);

  /// Fires one tick: `tick` must equal now() (the wheel advances one
  /// tick per call, in lockstep with the server clock).  Appends every
  /// due key to `due` in ascending key order and advances now() by one.
  void collect(std::uint64_t tick, std::vector<std::uint64_t>& due);

  std::uint64_t now() const { return now_; }
  /// Entries filed and not yet fired.
  std::size_t scheduled() const { return scheduled_; }

 private:
  struct Entry {
    std::uint64_t due = 0;
    std::uint64_t key = 0;
  };

  void place(std::uint64_t due, std::uint64_t key);
  void cascade(std::size_t level, std::size_t slot);

  std::array<std::array<std::vector<Entry>, kSlots>, kLevels> slots_{};
  std::vector<Entry> cascade_scratch_;
  std::uint64_t now_ = 0;
  std::size_t scheduled_ = 0;
};

}  // namespace affectsys::core
