// Perfetto-style event tracing for the smartphone simulator: records
// process starts/kills/foreground switches and can render the Fig 9
// process-lifespan diagram as ASCII.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "android/app.hpp"

namespace affectsys::android {

enum class TraceEventType : std::uint8_t {
  kColdStart,
  kWarmStart,
  kKill,
  kForeground,
  kEmotionChange,
};

struct TraceEvent {
  double time_s = 0.0;
  TraceEventType type = TraceEventType::kColdStart;
  AppId app = 0;
  std::string detail;
};

/// One contiguous alive interval of a process.
struct ProcessSpan {
  AppId app = 0;
  double start_s = 0.0;
  double end_s = 0.0;  ///< kill time, or trace end if still alive
};

class Tracer {
 public:
  void record(double time_s, TraceEventType type, AppId app,
              std::string detail = {});

  const std::vector<TraceEvent>& events() const { return events_; }

  /// Reconstructs per-app alive intervals up to `end_s`.
  std::vector<ProcessSpan> process_spans(double end_s) const;

  /// Renders a Fig 9-style lifespan chart: one row per app that ever ran,
  /// `====` while alive and `....` while dead, `columns` characters wide.
  std::string render_timeline(const std::vector<App>& catalog, double end_s,
                              int columns = 72) const;

  std::size_t count(TraceEventType type) const;

  /// Serializes the event list as Chrome-trace/Perfetto-style JSON
  /// (an array of {"ts": us, "name", "ph", "pid"(app), "args"} objects),
  /// loadable by chrome://tracing for inspection.
  std::string to_json(const std::vector<App>& catalog) const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace affectsys::android
