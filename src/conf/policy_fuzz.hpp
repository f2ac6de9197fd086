// Structured fuzzing of the switch-policy table space: a seeded
// generator produces random SwitchPolicy tables (wildcards, overlapping
// rows, degenerate empty/single-row tables, out-of-range targets) and a
// deterministic runner drives each table through a context storm —
// fresh random (mode, pressure, loss, power, speaker role) every few
// pictures — over the aligned simulcast clip, through a faulted
// TransportLink (FaultPlan kNetKinds: loss, bursts, jitter, dup,
// reorder) into a resilient decoder.
//
// The runner is a pure function of (clip, config): the context RNG is
// its own splitmix64 stream and every network choice comes from the
// FaultPlan, so two runs with equal inputs produce equal
// PolicyFuzzResults — the replay half of the invariant suite.  The
// other half is checked from the returned trace: every forwarded-layer
// change past the first lands on an aligned IDR, and no trace entry
// names a layer outside the clip's ladder, whatever the table said.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "fault/plan.hpp"
#include "simulcast/encoder.hpp"
#include "simulcast/policy.hpp"

namespace affectsys::conf {

/// Seeded random rule table over the full column space.  Targets may
/// deliberately overshoot the ladder (target_layer clamps); rule count
/// 0 (default-target-only) and 1 (single row) are generated often
/// enough that the degenerate shapes stay covered.
simulcast::SwitchPolicy random_switch_policy(std::uint64_t seed,
                                             std::size_t layers);

struct PolicyFuzzConfig {
  std::uint64_t seed = 1;        ///< context-storm RNG seed
  std::uint64_t pictures = 72;   ///< picture boundaries to walk
  /// Network fault schedule (kNetKinds sites at the channel); rate 0
  /// makes the transport the identity function.
  fault::FaultConfig fault{};
};

struct PolicyFuzzResult {
  /// (picture index, forwarded layer) on every change; entry 0 is the
  /// initial top-layer lock.
  std::vector<std::pair<std::uint64_t, std::uint8_t>> layer_trace;
  /// h264::frame_digest chained over every decoded picture in order.
  std::uint64_t decode_digest = 1469598103934665603ull;
  std::uint64_t pictures_walked = 0;
  std::uint64_t frames_decoded = 0;
  std::uint64_t switches_completed = 0;
  std::uint64_t max_wait_pictures = 0;
  std::uint64_t packets_lost = 0;
  std::uint64_t nals_lost = 0;
  std::uint64_t faults_injected = 0;
  bool operator==(const PolicyFuzzResult&) const = default;
};

/// Drives `policy` through one seeded context storm over `clip`.
PolicyFuzzResult run_policy_fuzz(const simulcast::SimulcastClip& clip,
                                 const simulcast::SwitchPolicy& policy,
                                 const PolicyFuzzConfig& cfg);

}  // namespace affectsys::conf
