#include "android/trace.hpp"

#include <algorithm>
#include <sstream>

namespace affectsys::android {

void Tracer::record(double time_s, TraceEventType type, AppId app,
                    std::string detail) {
  events_.push_back({time_s, type, app, std::move(detail)});
}

std::vector<ProcessSpan> Tracer::process_spans(double end_s) const {
  std::map<AppId, double> alive_since;
  std::vector<ProcessSpan> spans;
  for (const TraceEvent& e : events_) {
    switch (e.type) {
      case TraceEventType::kColdStart:
        if (!alive_since.contains(e.app)) alive_since[e.app] = e.time_s;
        break;
      case TraceEventType::kKill: {
        auto it = alive_since.find(e.app);
        if (it != alive_since.end()) {
          spans.push_back({e.app, it->second, e.time_s});
          alive_since.erase(it);
        }
        break;
      }
      default:
        break;
    }
  }
  for (const auto& [app, since] : alive_since) {
    spans.push_back({app, since, end_s});
  }
  std::sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
    return a.app != b.app ? a.app < b.app : a.start_s < b.start_s;
  });
  return spans;
}

std::string Tracer::render_timeline(const std::vector<App>& catalog,
                                    double end_s, int columns) const {
  const auto spans = process_spans(end_s);
  std::map<AppId, std::vector<const ProcessSpan*>> by_app;
  for (const auto& s : spans) by_app[s.app].push_back(&s);

  auto name_of = [&](AppId id) -> std::string {
    for (const App& a : catalog) {
      if (a.id == id) return a.name;
    }
    return "app_" + std::to_string(id);
  };

  std::ostringstream os;
  for (const auto& [app, app_spans] : by_app) {
    std::string row(static_cast<std::size_t>(columns), '.');
    for (const ProcessSpan* s : app_spans) {
      const int c0 = std::clamp(
          static_cast<int>(s->start_s / end_s * columns), 0, columns - 1);
      const int c1 = std::clamp(
          static_cast<int>(s->end_s / end_s * columns), c0, columns - 1);
      for (int c = c0; c <= c1; ++c) row[static_cast<std::size_t>(c)] = '=';
    }
    std::string name = name_of(app);
    name.resize(24, ' ');
    os << name << " |" << row << "|\n";
  }
  return os.str();
}

namespace {

std::string_view event_name(TraceEventType t) {
  switch (t) {
    case TraceEventType::kColdStart:
      return "cold_start";
    case TraceEventType::kWarmStart:
      return "warm_start";
    case TraceEventType::kKill:
      return "kill";
    case TraceEventType::kForeground:
      return "foreground";
    case TraceEventType::kEmotionChange:
      return "emotion_change";
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

}  // namespace

std::string Tracer::to_json(const std::vector<App>& catalog) const {
  auto name_of = [&](AppId id) -> std::string {
    for (const App& a : catalog) {
      if (a.id == id) return a.name;
    }
    return "app_" + std::to_string(id);
  };
  std::ostringstream os;
  os << "[\n";
  bool first = true;
  for (const TraceEvent& e : events_) {
    if (!first) os << ",\n";
    first = false;
    os << "  {\"ts\": " << static_cast<long long>(e.time_s * 1e6)
       << ", \"ph\": \"i\", \"name\": \"" << event_name(e.type)
       << "\", \"pid\": " << e.app << ", \"args\": {\"app\": \""
       << json_escape(e.app ? name_of(e.app) : std::string("system"))
       << "\", \"detail\": \"" << json_escape(e.detail) << "\"}}";
  }
  os << "\n]\n";
  return os.str();
}

std::size_t Tracer::count(TraceEventType type) const {
  return static_cast<std::size_t>(
      std::count_if(events_.begin(), events_.end(),
                    [&](const TraceEvent& e) { return e.type == type; }));
}

}  // namespace affectsys::android
