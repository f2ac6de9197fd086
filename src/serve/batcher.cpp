#include "serve/batcher.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/loss.hpp"

namespace affectsys::serve {

namespace {

/// Layers whose forward is an independent per-row map, so a stacked
/// batch runs them bit-identically to row-at-a-time execution.
bool row_wise(const std::string& kind) {
  return kind == "dense" || kind == "relu" || kind == "tanh" ||
         kind == "sigmoid";
}

}  // namespace

InferenceBatcher::InferenceBatcher(affect::AffectClassifier& classifier,
                                   const BatcherConfig& cfg)
    : classifier_(classifier), cfg_(cfg) {
  if (cfg_.max_batch == 0) {
    throw std::invalid_argument("InferenceBatcher: max_batch must be >= 1");
  }
  nn::Sequential& model = classifier_.model();
  batchable_ = model.layer_count() >= 2 && model.layer(0).kind() == "flatten";
  for (std::size_t i = 1; batchable_ && i < model.layer_count(); ++i) {
    batchable_ = row_wise(model.layer(i).kind());
  }
  pending_.reserve(cfg_.max_batch * 2);

  const obs::MetricScope scope;
  c_flushes_ = &scope.counter("serve.batch.flushes");
  c_inferences_ = &scope.counter("affect.inferences");
  c_forced_fallbacks_ = &scope.counter("serve.batch.forced_fallbacks");
  h_rows_ = &scope.histogram("serve.batch.rows");
  h_infer_ns_ = &scope.histogram("serve.batch.infer_ns");
}

void InferenceBatcher::enqueue(InferenceRequest req) {
  pending_.push_back(std::move(req));
}

bool InferenceBatcher::should_flush(std::uint64_t /*now_tick*/) const {
  return pending() > 0;
}

void InferenceBatcher::row_result_into(std::span<const float> logits_row,
                                       RoutedResult& out) const {
  affect::ClassificationResult& res = out.result;
  nn::softmax_probs_into(logits_row, res.probabilities);
  const std::size_t idx = nn::argmax(res.probabilities);
  if (idx >= classifier_.label_set().size()) {
    throw std::logic_error("InferenceBatcher: model output wider than labels");
  }
  res.emotion = classifier_.label_set()[idx];
  res.confidence = res.probabilities[idx];
}

std::size_t InferenceBatcher::flush_into(std::span<RoutedResult> out) {
  const std::size_t n = std::min({pending(), cfg_.max_batch, out.size()});
  if (n == 0) return 0;

  ++stats_.flushes;
  stats_.windows += n;
  stats_.max_batch_rows = std::max(stats_.max_batch_rows, n);
  c_flushes_->add(1);
  h_rows_->observe(static_cast<double>(n));
  c_inferences_->add(n);
  obs::ScopedTimerNs timer(*h_infer_ns_);

  if (force_fallback_) {
    ++stats_.forced_fallback_flushes;
    c_forced_fallbacks_->add(1);
  }
  const InferenceRequest* reqs = pending_.data() + head_;
  for (std::size_t r = 0; r < n; ++r) {
    out[r].session = reqs[r].session;
    out[r].seq = reqs[r].seq;
    out[r].enqueue_tick = reqs[r].enqueue_tick;
    out[r].t_end = reqs[r].t_end;
  }
  if (batchable_ && !force_fallback_) {
    // Stacked path (also taken for a single row, where "stack of one"
    // and full forward are trivially the same product; batched_windows
    // keeps its historical meaning of rows that shared a GEMM).
    if (n > 1) stats_.batched_windows += n;
    const std::size_t flat = reqs[0].size();
    batch_.reshape(n, flat);
    for (std::size_t r = 0; r < n; ++r) {
      if (reqs[r].size() != flat) {
        throw std::invalid_argument(
            "InferenceBatcher: inconsistent feature geometry in batch");
      }
      // Flatten is a row-major copy, so the sample's flat() span IS its
      // Flatten output.
      std::memcpy(batch_.row(r).data(), reqs[r].flat().data(),
                  flat * sizeof(float));
    }
    const nn::Matrix& logits =
        classifier_.model().forward_from_infer(1, batch_, ws_);
    for (std::size_t r = 0; r < n; ++r) row_result_into(logits.row(r), out[r]);
  } else {
    // Per-window fallback: non-batchable models or a forced fallback —
    // the full reference forward per request.
    for (std::size_t r = 0; r < n; ++r) {
      const InferenceRequest& req = reqs[r];
      fallback_.reshape(req.rows, req.cols);
      std::memcpy(fallback_.flat().data(), req.flat().data(),
                  req.size() * sizeof(float));
      const nn::Matrix logits = classifier_.model().forward(fallback_);
      row_result_into(logits.flat(), out[r]);
    }
  }

  // Release the consumed prefix's buffers now (a flushed window must
  // not pin its pool block until compaction) and compact once drained
  // or once the dead prefix dominates.
  for (std::size_t r = 0; r < n; ++r) {
    pending_[head_ + r].features.reset();
  }
  head_ += n;
  if (head_ == pending_.size()) {
    pending_.clear();
    head_ = 0;
  } else if (head_ >= 64 && head_ * 2 >= pending_.size()) {
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  return n;
}

std::vector<RoutedResult> InferenceBatcher::flush() {
  std::vector<RoutedResult> out(std::min(pending(), cfg_.max_batch));
  const std::size_t n = flush_into(out);
  out.resize(n);
  return out;
}

}  // namespace affectsys::serve
