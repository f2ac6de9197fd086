// The Section 5.2 app-management experiment: replay an identical monkey
// usage sequence under the system-default policy and under the emotional
// background manager, and compare loading metrics (Fig 9 / Fig 10).
#pragma once

#include <memory>
#include <string>

#include "affect/scl.hpp"
#include "android/monkey.hpp"
#include "android/process.hpp"
#include "core/affect_table.hpp"

namespace affectsys::core {

/// How the App Affect Table is populated before the measured run.
enum class AffectTableSource {
  /// Analytic long-term usage distribution per emotion (an idealized
  /// "App Running Record" after unbounded observation).
  kAnalytic,
  /// Learned online from a separate warm-up usage sequence (finite,
  /// noisy observation — the literal Fig 8 record path).
  kOnlineWarmup,
};

struct ManagerExperimentConfig {
  android::EmulatorSpec emulator{};
  /// Excited for the first 12 minutes, calm for the following 8 (Fig 9).
  affect::EmotionTimeline timeline;
  android::MonkeyConfig monkey{};
  unsigned catalog_seed = 2022;
  /// Baseline policy name: "fifo" (paper default), "lru" or "frequency".
  std::string baseline = "fifo";
  AffectTableSource table_source = AffectTableSource::kAnalytic;
  /// Warm-up observation length (multiples of the timeline) for
  /// kOnlineWarmup.
  int warmup_repeats = 3;

  ManagerExperimentConfig();
};

struct ManagerExperimentResult {
  android::LoadingMetrics baseline;
  android::LoadingMetrics proposed;
  android::Tracer baseline_trace;
  android::Tracer proposed_trace;
  std::vector<android::UsageEvent> events;
  std::vector<android::App> catalog;
  double duration_s = 0.0;

  double memory_saving() const {
    return baseline.memory_loaded_bytes
               ? 1.0 - static_cast<double>(proposed.memory_loaded_bytes) /
                           static_cast<double>(baseline.memory_loaded_bytes)
               : 0.0;
  }
  double time_saving() const {
    return baseline.loading_time_s > 0.0
               ? 1.0 - proposed.loading_time_s / baseline.loading_time_s
               : 0.0;
  }
};

/// Runs both policies on the same usage sequence.  The App Affect Table is
/// seeded from the subjects' analytic usage profiles (long-term "App
/// Running Record"); the emotional policy tracks the timeline's emotion.
ManagerExperimentResult run_manager_experiment(
    const ManagerExperimentConfig& cfg);

/// Constructs a baseline KillPolicy by name ("fifo" / "lru" / "frequency").
std::unique_ptr<android::KillPolicy> make_baseline_policy(
    const std::string& name);

}  // namespace affectsys::core
