#include "android/process.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace affectsys::android {

ProcessManager::ProcessManager(std::vector<App> catalog,
                               ProcessManagerConfig cfg, KillPolicy& policy,
                               Tracer* tracer)
    : catalog_(std::move(catalog)),
      cfg_(cfg),
      policy_(policy),
      tracer_(tracer) {
  // Protected system processes boot with the device.
  for (const App& a : catalog_) {
    if (a.protected_from_kill) {
      running_[a.id] = {a.id, 0.0, 0.0, 0, false};
    }
  }
}

const App& ProcessManager::app_info(AppId id) const {
  const auto it =
      std::find_if(catalog_.begin(), catalog_.end(),
                   [&](const App& a) { return a.id == id; });
  if (it == catalog_.end()) {
    throw std::invalid_argument("ProcessManager: unknown app id");
  }
  return *it;
}

std::size_t ProcessManager::killable_count() const {
  std::size_t n = 0;
  for (const auto& [id, st] : running_) {
    n += app_info(id).protected_from_kill ? 0 : 1;
  }
  return n;
}

std::uint64_t ProcessManager::used_ram() const {
  std::uint64_t total = cfg_.reserved_bytes;
  for (const auto& [id, st] : running_) total += app_info(id).memory_bytes;
  return total;
}

void ProcessManager::kill(AppId app, double time_s, std::string_view reason) {
  running_.erase(app);
  ++metrics_.kills;
  AFFECTSYS_COUNT("android.kills", 1);
  if (tracer_) {
    tracer_->record(time_s, TraceEventType::kKill, app, std::string(reason));
  }
}

void ProcessManager::make_room(std::uint64_t need_bytes, double time_s,
                               AppId incoming) {
  auto limit_pressure = [&] {
    return killable_count() + 1 > cfg_.process_limit;
  };
  auto ram_pressure = [&] {
    return used_ram() + need_bytes > cfg_.ram_bytes;
  };
  auto pick_victim = [&]() -> std::optional<AppId> {
    std::vector<VictimCandidate> candidates;
    for (const auto& [id, st] : running_) {
      const App& a = app_info(id);
      if (a.protected_from_kill || st.foreground || id == incoming) continue;
      candidates.push_back({id, st.loaded_at_s, st.last_used_s,
                            a.memory_bytes, st.launch_count});
    }
    if (candidates.empty()) return std::nullopt;
    std::optional<AppId> victim = policy_.select_victim(candidates);
    if (!victim) {
      // Last resort: FIFO.
      victim = std::min_element(candidates.begin(), candidates.end(),
                                [](const auto& a, const auto& b) {
                                  return a.loaded_at_s < b.loaded_at_s;
                                })
                   ->app;
    }
    return victim;
  };

  while (limit_pressure() || ram_pressure()) {
    const auto victim = pick_victim();
    if (!victim) return;  // only protected processes remain
    kill(*victim, time_s, "pressure");
  }
}

LoadCost ProcessManager::launch(AppId app, double time_s) {
  AFFECTSYS_TIME_SCOPE("android.launch_ns");
  const App& info = app_info(app);
  ++lifetime_launches_[app];

  // Previous foreground app retreats to the background cache.
  if (foreground_ && running_.contains(*foreground_)) {
    running_[*foreground_].foreground = false;
  }

  LoadCost cost;
  if (auto it = running_.find(app); it != running_.end()) {
    // Warm start: the app is still resident.
    ++metrics_.warm_starts;
    AFFECTSYS_COUNT("android.warm_starts", 1);
    it->second.last_used_s = time_s;
    it->second.launch_count = lifetime_launches_[app];
    it->second.foreground = true;
    if (tracer_) tracer_->record(time_s, TraceEventType::kWarmStart, app);
  } else {
    // Cold start: make room, then page in from flash and allocate.
    make_room(info.memory_bytes, time_s, app);
    cost = flash_.read_and_account(info.image_bytes);
    cost.time_s += info.init_time_s;
    ++metrics_.cold_starts;
    AFFECTSYS_COUNT("android.cold_starts", 1);
    AFFECTSYS_COUNT("android.memory_loaded_bytes",
                    info.image_bytes + info.memory_bytes);
    metrics_.memory_loaded_bytes += info.image_bytes + info.memory_bytes;
    metrics_.loading_time_s += cost.time_s;
    metrics_.flash_energy_nj += cost.energy_nj;
    running_[app] = {app, time_s, time_s, lifetime_launches_[app], true};
    if (tracer_) tracer_->record(time_s, TraceEventType::kColdStart, app);
  }
  foreground_ = app;
  if (tracer_) tracer_->record(time_s, TraceEventType::kForeground, app);
  return cost;
}

bool ProcessManager::invariants_hold() const {
  if (killable_count() > cfg_.process_limit + 1) return false;  // +1: fg app
  if (used_ram() > cfg_.ram_bytes + (1ull << 30)) return false;
  std::size_t fg = 0;
  for (const auto& [id, st] : running_) fg += st.foreground ? 1 : 0;
  return fg <= 1;
}

}  // namespace affectsys::android
