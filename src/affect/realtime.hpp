// Real-time classification pipeline: audio ring buffer -> VAD gate ->
// windowed classification -> EmotionStream smoothing.
//
// This is the runtime shape of the Fig 4 signal flow: samples arrive in
// small device-driver chunks, a sliding window is classified only when
// the VAD saw enough speech, and stable emotions pop out the other end.
//
// Steady-state the per-window path is allocation-free: the window
// buffer holds exactly one window plus one chunk from the first push,
// VAD stages frames through a reused buffer, and extraction (in-pipeline
// classification only; sink mode hands the raw window out) writes the
// classifier's reused output matrix from thread-local frame scratch.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "affect/classifier.hpp"
#include "affect/stream.hpp"
#include "affect/vad.hpp"

namespace affectsys::affect {

struct RealtimeConfig {
  double sample_rate_hz = 16000.0;
  double window_s = 1.0;        ///< classification window
  double window_stride_s = 0.5; ///< stride between classification attempts
  /// Minimum VAD speech fraction inside a window to spend a classifier
  /// invocation on it.
  double min_speech_fraction = 0.3;
  VadConfig vad{};
  StreamConfig stream{3, 2.0};
  /// Capture-gap tolerance: when a pushed chunk starts more than this
  /// many seconds after the end of the buffered audio (a stalled or
  /// faulted capture path), the stale window buffer is discarded and
  /// the window deadline clock re-anchors at the next full window,
  /// instead of spinning stride-by-stride over stale samples to catch
  /// the clock up.  <= 0 disables gap detection (pre-existing
  /// behaviour).  Contiguous feeds never trigger it.
  double gap_tolerance_s = 1.0;
  /// Bound on sink-mode windows delivered but not yet answered by
  /// apply_label(); overflow drops the newest window and counts it.
  std::size_t max_inflight = 8;
};

struct RealtimeStats {
  std::uint64_t samples_in = 0;
  std::uint64_t windows_considered = 0;
  std::uint64_t windows_classified = 0;  ///< survived the VAD gate
  std::uint64_t windows_dropped = 0;     ///< sink-mode backpressure
  std::uint64_t stable_changes = 0;
  std::uint64_t gap_resyncs = 0;  ///< buffer resets after capture gaps
};

class RealtimePipeline {
 public:
  /// The classifier must outlive the pipeline.
  RealtimePipeline(AffectClassifier& classifier, const RealtimeConfig& cfg);

  RealtimePipeline(const RealtimePipeline&) = delete;
  RealtimePipeline& operator=(const RealtimePipeline&) = delete;

  /// Feeds a chunk of audio stamped at `t_s` (chunk start).  Returns the
  /// new stable emotion if this chunk's processing changed it.
  std::optional<Emotion> push_audio(double t_s,
                                    std::span<const double> chunk);

  Emotion stable_emotion() const;
  const RealtimeStats& stats() const { return stats_; }

  /// Observer of every raw (pre-smoothing) classification made inside
  /// the pipeline (not sink mode).  Set before the first push_audio().
  void on_raw_label(std::function<void(double, Emotion, float)> cb) {
    raw_cb_ = std::move(cb);
  }

  /// External-inference (sink) mode: windows surviving the VAD gate are
  /// handed to `sink` instead of being classified here — the session
  /// server routes them through its cross-session batcher and reports
  /// each result back via apply_label().  The drop-newest bound applies
  /// unchanged: while max_inflight windows are outstanding (delivered
  /// to the sink, result not yet applied), further windows are shed and
  /// counted.  Set before the first push_audio().  The sink runs inline
  /// inside push_audio.
  using WindowSink = std::function<void(double, std::span<const double>)>;
  void set_window_sink(WindowSink sink) { sink_ = std::move(sink); }

  /// Applies one externally-classified raw label (sink mode): retires
  /// the oldest outstanding window and pushes the label through the
  /// smoothing stream, returning the new stable emotion on change —
  /// byte-identical stream evolution to the in-pipeline classify path.
  std::optional<Emotion> apply_label(double t_end, Emotion raw);

  /// Windows shed by the sink-mode drop-newest bound.  Thread-safe,
  /// unlike stats(): the session server's overload logic polls it while
  /// the pipeline runs.
  std::uint64_t dropped() const;

 private:
  /// Classifies one window and pushes it through the smoothing stream;
  /// returns the new stable emotion on change.
  std::optional<Emotion> classify_and_apply(double t_end,
                                            std::span<const double> window);
  /// Pushes one raw label through the smoothing stream; returns the new
  /// stable emotion on change.  Caller holds mu_.
  std::optional<Emotion> push_label(double t_end, Emotion raw);

  AffectClassifier& classifier_;
  RealtimeConfig cfg_;
  VoiceActivityDetector vad_;
  EmotionStream stream_;
  RealtimeStats stats_;
  std::vector<double> buffer_;  ///< sliding window of recent samples
  double buffer_end_t_ = 0.0;
  double next_window_t_ = 0.0;
  /// False until the first full window fires; the first deadline anchors
  /// to that moment and subsequent ones advance by exactly one stride.
  bool window_clock_started_ = false;
  std::function<void(double, Emotion, float)> raw_cb_;
  WindowSink sink_;
  /// Sink-mode windows delivered but not yet retired by apply_label().
  std::size_t outstanding_ = 0;

  /// Guards outstanding_, stream_ and stats_.windows_dropped /
  /// stable_changes, so dropped() and stable_emotion() may be read from
  /// another thread.
  mutable std::mutex mu_;
};

}  // namespace affectsys::affect
