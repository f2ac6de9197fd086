// Process and memory manager: the foreground/background service model of
// Fig 8 with a pluggable background-kill policy.
//
// Launch semantics follow Android: a launch of a cached background app is
// a warm start (no flash traffic); a launch of a dead app is a cold start
// that reads the app image from flash, allocates its resident set, and —
// when the process limit or RAM budget is exceeded — first kills victims
// chosen by the KillPolicy.  Protected apps and the current foreground
// app are never killed.
#pragma once

#include <functional>
#include <map>
#include <optional>

#include "android/catalog.hpp"
#include "android/flash.hpp"
#include "android/policy.hpp"
#include "android/trace.hpp"

namespace affectsys::android {

struct ProcessState {
  AppId app = 0;
  double loaded_at_s = 0.0;
  double last_used_s = 0.0;
  std::size_t launch_count = 0;
  bool foreground = false;
};

/// Aggregate loading metrics — the Fig 10 quantities.
struct LoadingMetrics {
  std::uint64_t cold_starts = 0;
  std::uint64_t warm_starts = 0;
  std::uint64_t kills = 0;
  /// "Total memory loaded at App start": flash image + allocated RAM,
  /// summed over cold starts.
  std::uint64_t memory_loaded_bytes = 0;
  /// "Total App loading time": flash read + fixed init, over cold starts.
  double loading_time_s = 0.0;
  double flash_energy_nj = 0.0;
};

struct ProcessManagerConfig {
  std::size_t process_limit = 20;
  std::uint64_t ram_bytes = 4096ull * 1024 * 1024;
  /// RAM held by the OS and services, unavailable to apps.
  std::uint64_t reserved_bytes = 1024ull * 1024 * 1024;
};

class ProcessManager {
 public:
  ProcessManager(std::vector<App> catalog, ProcessManagerConfig cfg,
                 KillPolicy& policy, Tracer* tracer = nullptr);

  /// User opens an app at `time_s`.  Returns the cold-start cost, or an
  /// empty cost for warm starts.
  LoadCost launch(AppId app, double time_s);

  bool is_running(AppId app) const { return running_.contains(app); }
  std::size_t running_count() const { return running_.size(); }
  /// Processes that count against the background process limit (protected
  /// system/persistent processes are exempt, as on Android).
  std::size_t killable_count() const;
  std::uint64_t used_ram() const;
  std::optional<AppId> foreground() const { return foreground_; }

  const LoadingMetrics& metrics() const { return metrics_; }
  const std::vector<App>& catalog() const { return catalog_; }
  const App& app_info(AppId id) const;

  /// Invariant checks (used by property tests): process limit respected,
  /// RAM budget respected, exactly one foreground process.
  bool invariants_hold() const;

 private:
  void make_room(std::uint64_t need_bytes, double time_s, AppId incoming);
  void kill(AppId app, double time_s, std::string_view reason);

  std::vector<App> catalog_;
  ProcessManagerConfig cfg_;
  KillPolicy& policy_;
  Tracer* tracer_;
  std::map<AppId, ProcessState> running_;
  std::map<AppId, std::size_t> lifetime_launches_;
  std::optional<AppId> foreground_;
  FlashStorage flash_;
  LoadingMetrics metrics_;
};

}  // namespace affectsys::android
