// The serve layer's approximate-inference ladder: precision as a
// managed resource, alongside the decode-quality degrade ladder.
//
// Three rungs, cheapest last:
//   0  fp32  — the reference classifier through the batched GEMM,
//   1  int8  — the same model's weights on the register-blocked int8
//              GEMM (nn/quantize QuantizedMlp),
//   2  hdc   — the binary hyperdimensional classifier (affect/hdc):
//              popcount Hamming distance, no floating point.
//
// The server steps a global *pressure* level through the rungs on
// backlog watermarks (one step per tick, hysteresis band, exactly the
// degrade ladder's shape), and each session clamps that pressure by its
// own emotion stability: only sessions whose recent classifications are
// confident and calm ride the cheap rungs, so precision is spent where
// the emotion signal is actually uncertain.  Rung choices are stamped
// onto staged windows and honoured by the server's batcher, which keeps
// batches rung-homogeneous (FIFO prefix) so every batch is still
// bit-identical to its rung's single-window execution.
//
// Everything here is deterministic: pressure is a pure function of the
// backlog history, per-session rungs are pure functions of (pressure,
// that session's own result stream, local tick), so a ladder-on run
// replays exactly — and with enabled=false (the default) no control
// flow changes anywhere, which the byte-identity tests pin against the
// pre-ladder server.
#pragma once

#include <cstddef>
#include <cstdint>

#include "affect/hdc.hpp"
#include "nn/quantize.hpp"

namespace affectsys::serve {

/// Inference precision rung; higher = cheaper and more approximate.
enum class Rung : std::uint8_t { kFp32 = 0, kInt8 = 1, kHdc = 2 };

inline constexpr std::size_t kNumRungs = 3;

inline const char* rung_name(Rung r) {
  switch (r) {
    case Rung::kFp32: return "fp32";
    case Rung::kInt8: return "int8";
    case Rung::kHdc:  return "hdc";
  }
  return "?";
}

struct LadderConfig {
  /// Master switch.  False keeps every window on fp32 and makes every
  /// ladder code path a no-op (byte-identical to the pre-ladder server).
  bool enabled = false;
  /// Backlog watermarks for the global pressure level (windows pending
  /// at the batcher, same quantity the degrade ladder reads).
  /// Crossing `hi` raises pressure one rung per tick; falling to `lo`
  /// lowers it — the gap is the anti-flap hysteresis band.
  std::size_t backlog_hi = 32;
  std::size_t backlog_lo = 8;
  /// Per-session eligibility: a session may run int8 once its
  /// confidence EMA reaches conf_int8 with calm_windows results since
  /// the last stable-emotion switch, and HDC at conf_hdc with twice
  /// that calm streak.  Volatile sessions stay on fp32 regardless of
  /// pressure.
  float conf_int8 = 0.55f;
  float conf_hdc = 0.70f;
  std::size_t calm_windows = 2;
  /// Minimum local ticks between a session's rung moves (dwell time) —
  /// one step per move, so a session cannot flap between rungs inside
  /// the dwell window.
  std::uint64_t hysteresis_ticks = 10;
  /// Approximate feature storage: low mantissa bits cleared from staged
  /// feature windows (nn::truncate_mantissa).  0 (the default) leaves
  /// every byte untouched — the byte-identity guarantee.  Independent
  /// of `enabled`: truncation is a storage knob, not a rung.
  unsigned truncate_bits = 0;
};

/// Non-owning handles to the cheap-rung models, handed to the server's
/// batcher.  A null model keeps its rung unreachable (the server caps
/// max_rung accordingly).
struct LadderRuntime {
  const nn::QuantizedMlp* int8_model = nullptr;
  const affect::HdcClassifier* hdc = nullptr;
};

}  // namespace affectsys::serve
