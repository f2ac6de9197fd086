#include "affect/realtime.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace affectsys::affect {

RealtimePipeline::RealtimePipeline(AffectClassifier& classifier,
                                   const RealtimeConfig& cfg)
    : classifier_(classifier), cfg_(cfg), vad_(cfg.vad),
      stream_(cfg.stream) {}

std::optional<Emotion> RealtimePipeline::push_audio(
    double t_s, std::span<const double> chunk) {
  if (cfg_.gap_tolerance_s > 0.0 && !buffer_.empty() &&
      t_s > buffer_end_t_ + cfg_.gap_tolerance_s) {
    // Capture gap: the buffered tail is stale audio from before the
    // stall.  Windows spanning the gap would splice unrelated speech,
    // and the anchored deadline clock would classify stride-by-stride
    // through the dead time — drop the tail and re-anchor instead.
    buffer_.clear();
    window_clock_started_ = false;
    ++stats_.gap_resyncs;
    AFFECTSYS_COUNT("affect.gap_resyncs", 1);
  }
  stats_.samples_in += chunk.size();
  AFFECTSYS_COUNT("affect.samples_in", chunk.size());
  const auto window_len =
      static_cast<std::size_t>(cfg_.window_s * cfg_.sample_rate_hz);
  // The buffer never holds more than one window: reserve exactly that
  // up front rather than let insert's doubling overshoot (and strand
  // the blocks it outgrows).
  if (buffer_.capacity() == 0 && !chunk.empty()) buffer_.reserve(window_len);
  // Keep at most one window of history: drop what the chunk pushes out
  // before appending it, so the buffer never exceeds its reserve.  A
  // chunk of a window or more keeps only its last window_len samples.
  const std::size_t take = std::min(chunk.size(), window_len);
  const std::size_t keep = std::min(buffer_.size(), window_len - take);
  buffer_.erase(buffer_.begin(), buffer_.end() - static_cast<long>(keep));
  buffer_.insert(buffer_.end(), chunk.end() - static_cast<long>(take),
                 chunk.end());
  buffer_end_t_ =
      t_s + static_cast<double>(chunk.size()) / cfg_.sample_rate_hz;

  std::optional<Emotion> changed;
  while (buffer_.size() >= window_len && buffer_end_t_ >= next_window_t_) {
    // The deadline clock is anchored once, when the first full window is
    // available, and then advances by exactly one stride per considered
    // window.  Advancing from buffer_end_t_ instead would quantize the
    // stride up to the chunk boundary (drift), and a chunk longer than
    // the stride would silently skip classification windows.
    if (!window_clock_started_) {
      window_clock_started_ = true;
      next_window_t_ = buffer_end_t_;
    }
    next_window_t_ += cfg_.window_stride_s;
    ++stats_.windows_considered;
    AFFECTSYS_COUNT("affect.windows_considered", 1);
    const std::span<const double> window{
        buffer_.data() + buffer_.size() - window_len, window_len};
    if (vad_.speech_fraction(window) < cfg_.min_speech_fraction) {
      continue;  // silence: save the classifier invocation
    }
    if (sink_) {
      // Sink mode: the window is classified externally (the session
      // server's batcher); shed the newest window while max_inflight
      // results have not yet come back via apply_label().
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (outstanding_ >= cfg_.max_inflight) {
          ++stats_.windows_dropped;
          AFFECTSYS_COUNT("affect.windows_dropped", 1);
          continue;
        }
        ++outstanding_;
      }
      ++stats_.windows_classified;
      AFFECTSYS_COUNT("affect.windows_classified", 1);
      sink_(buffer_end_t_, window);
      continue;
    }
    ++stats_.windows_classified;
    AFFECTSYS_COUNT("affect.windows_classified", 1);
    if (auto c = classify_and_apply(buffer_end_t_, window)) changed = c;
  }
  return changed;
}

std::optional<Emotion> RealtimePipeline::classify_and_apply(
    double t_end, std::span<const double> window) {
  AFFECTSYS_TIME_SCOPE("affect.window_classify_ns");
  const ClassificationResult res = classifier_.classify(window);
  if (raw_cb_) raw_cb_(t_end, res.emotion, res.confidence);
  std::lock_guard<std::mutex> lk(mu_);
  return push_label(t_end, res.emotion);
}

std::optional<Emotion> RealtimePipeline::apply_label(double t_end,
                                                     Emotion raw) {
  std::lock_guard<std::mutex> lk(mu_);
  if (outstanding_ > 0) --outstanding_;
  return push_label(t_end, raw);
}

std::optional<Emotion> RealtimePipeline::push_label(double t_end,
                                                    Emotion raw) {
  if (auto c = stream_.push(t_end, raw)) {
    ++stats_.stable_changes;
    AFFECTSYS_COUNT("affect.stable_changes", 1);
    return c;
  }
  return std::nullopt;
}

std::uint64_t RealtimePipeline::dropped() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_.windows_dropped;
}

Emotion RealtimePipeline::stable_emotion() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stream_.stable();
}

}  // namespace affectsys::affect
