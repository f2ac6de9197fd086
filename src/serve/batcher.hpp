// Cross-session inference batcher: coalesces pending classifier
// windows from many sessions into one stacked GEMM.
//
// The PR 3 micro-kernel made a single-window forward fast; what it
// cannot do from inside one session is amortize the weight-matrix
// traffic — a (1 x 1088) x (1088 x 416) product streams 1.8 MB of
// weights from L2/L3 for 0.9 MFLOP of work.  Stacking B windows from B
// sessions into a (B x 1088) activation matrix re-uses every weight
// read across the kernel's 4-row register block, which is where the
// batched-vs-per-session throughput win in BENCH_serve.json comes
// from.
//
// Correctness contract: a batch row's result is bit-identical to
// AffectClassifier::classify_features() on the same feature matrix.
// This holds because (a) Flatten is a row-major copy, so batch row i is
// exactly sample i's Flatten output, and (b) the GEMM kernel performs
// the identical per-output-element accumulation sequence regardless of
// how many rows the product has (see nn/matrix.cpp) — bias adds and
// activations are elementwise.  Models that are not Flatten-headed
// row-wise stacks (CNN/LSTM) fall back to per-window forward through
// the same queue, so the serving layer works for every ModelKind and
// batches where it is provably safe.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "affect/classifier.hpp"
#include "core/buffer_pool.hpp"
#include "nn/matrix.hpp"
#include "nn/model.hpp"
#include "obs/metrics.hpp"

namespace affectsys::serve {

/// Monotonically assigned session handle (never reused within one
/// SessionManager; reuse of capacity slots still mints a fresh id).
using SessionId = std::uint64_t;

/// One VAD-surviving window awaiting inference.  The feature matrix
/// travels as a refcounted pooled buffer (row-major rows x cols floats)
/// so staging a window moves a pointer instead of copying — and so the
/// steady-state serve path stays heap-allocation-free.
struct InferenceRequest {
  SessionId session = 0;
  std::uint64_t seq = 0;          ///< per-session window sequence number
  std::uint64_t enqueue_tick = 0; ///< server tick the window was staged
  double t_end = 0.0;             ///< media-time window end
  core::BufferRef features;       ///< rows*cols floats, row-major
  std::size_t rows = 0;           ///< timesteps
  std::size_t cols = 0;           ///< feature_dim

  /// Copies a feature matrix into `features` (from `pool` when given,
  /// heap-backed otherwise).
  void set_features(const nn::Matrix& m, core::BufferPool* pool = nullptr) {
    rows = m.rows();
    cols = m.cols();
    const std::size_t bytes = rows * cols * sizeof(float);
    features = pool ? pool->acquire(bytes) : core::BufferRef::heap(bytes);
    std::memcpy(features.data(), m.flat().data(), bytes);
  }

  /// The row-major float view (exactly what Flatten would produce).
  std::span<const float> flat() const {
    return {reinterpret_cast<const float*>(features.data()), rows * cols};
  }
  std::size_t size() const { return rows * cols; }
};

/// A classified window routed back to its session.
struct RoutedResult {
  SessionId session = 0;
  std::uint64_t seq = 0;
  std::uint64_t enqueue_tick = 0;  ///< the request's, for label age
  double t_end = 0.0;
  affect::ClassificationResult result;
};

struct BatcherConfig {
  /// Rows per batched forward; also the per-flush service capacity, so
  /// it bounds how fast the server drains backlog (the admission /
  /// shedding tests overload exactly this).  There is no flush
  /// deadline: a window is classified the tick it is staged unless the
  /// tick's capacity is already spent.
  std::size_t max_batch = 16;
};

struct BatcherStats {
  std::uint64_t flushes = 0;
  std::uint64_t windows = 0;
  std::uint64_t batched_windows = 0;  ///< went through the stacked GEMM
  std::uint64_t forced_fallback_flushes = 0;  ///< forced per-window path
  std::size_t max_batch_rows = 0;
};

class InferenceBatcher {
 public:
  /// The classifier must outlive the batcher.  Inference is serialized
  /// through flush(); the model's activation caches are never touched
  /// concurrently.
  InferenceBatcher(affect::AffectClassifier& classifier,
                   const BatcherConfig& cfg);

  /// True when the model shape admits stacked-row batching (Flatten
  /// head followed by dense/elementwise layers only).
  bool batchable() const { return batchable_; }

  void enqueue(InferenceRequest req);
  std::size_t pending() const { return pending_.size() - head_; }

  /// True when a flush is due: any window is pending.  `now_tick` is
  /// unused (labels never wait for a deadline); it stays in the
  /// signature for callers that pass the server tick.
  bool should_flush(std::uint64_t now_tick) const;

  /// Classifies up to min(max_batch, out.size()) pending windows (FIFO)
  /// into the caller's scratch, reusing each slot's probability-vector
  /// capacity, and returns how many results were written.  The
  /// steady-state serving path: no allocation once scratch is warm.
  std::size_t flush_into(std::span<RoutedResult> out);

  /// Allocating convenience wrapper over flush_into() (classifies up to
  /// max_batch pending windows, results in enqueue order).
  std::vector<RoutedResult> flush();

  /// While set, flush() routes every window through the per-window
  /// fallback path even for batchable models.  Results stay
  /// bit-identical (the batching contract), so a flaky batcher only
  /// costs throughput — the degradation the kBatcherFallback fault
  /// exercises, and the per-window baseline the serve bench times.
  void force_fallback(bool on) { force_fallback_ = on; }
  bool forced_fallback() const { return force_fallback_; }

  const BatcherStats& stats() const { return stats_; }
  const BatcherConfig& config() const { return cfg_; }

 private:
  /// Fills `out.result` from one logits row, reusing the probability
  /// vector's capacity.
  void row_result_into(std::span<const float> logits_row,
                       RoutedResult& out) const;

  affect::AffectClassifier& classifier_;
  BatcherConfig cfg_;
  bool batchable_ = false;
  bool force_fallback_ = false;
  /// FIFO as a vector plus a consumed-prefix cursor: flushes advance
  /// head_ and the buffer compacts (capacity kept) once drained or once
  /// the dead prefix dominates, so steady-state enqueue/flush never
  /// reallocates.
  std::vector<InferenceRequest> pending_;
  std::size_t head_ = 0;
  BatcherStats stats_;

  // Inference scratch, reused across flushes.
  nn::Matrix batch_;            ///< stacked flat rows
  nn::ForwardWorkspace ws_;     ///< forward_from_infer ping-pong
  nn::Matrix fallback_;         ///< per-window matrix for the full forward

  // Cached metric handles (one registry lookup each, at construction).
  obs::Counter* c_flushes_ = nullptr;
  obs::Counter* c_inferences_ = nullptr;
  obs::Counter* c_forced_fallbacks_ = nullptr;
  obs::Histogram* h_rows_ = nullptr;
  obs::Histogram* h_infer_ns_ = nullptr;
};

}  // namespace affectsys::serve
