#include "core/manager_experiment.hpp"

#include <set>
#include <stdexcept>

#include "core/emotional_policy.hpp"

namespace affectsys::core {

ManagerExperimentConfig::ManagerExperimentConfig() {
  timeline.segments = {
      {0.0, 12.0 * 60.0, affect::Emotion::kExcited},
      {12.0 * 60.0, 20.0 * 60.0, affect::Emotion::kCalm},
  };
}

std::unique_ptr<android::KillPolicy> make_baseline_policy(
    const std::string& name) {
  if (name == "fifo") return std::make_unique<android::FifoKillPolicy>();
  if (name == "lru") return std::make_unique<android::LruKillPolicy>();
  if (name == "frequency") {
    return std::make_unique<android::FrequencyKillPolicy>();
  }
  throw std::invalid_argument("unknown baseline policy: " + name);
}

ManagerExperimentResult run_manager_experiment(
    const ManagerExperimentConfig& cfg) {
  ManagerExperimentResult res;
  res.catalog = android::build_catalog(cfg.emulator, cfg.catalog_seed);
  res.duration_s = cfg.timeline.duration_s();

  // One monkey sequence, replayed identically under both policies.
  android::MonkeyScript monkey(res.catalog, cfg.monkey);
  res.events = monkey.generate(cfg.timeline);

  android::ProcessManagerConfig pm_cfg;
  pm_cfg.process_limit = static_cast<std::size_t>(cfg.emulator.process_limit);
  pm_cfg.ram_bytes = cfg.emulator.ram_bytes;

  // ---- Baseline run ---------------------------------------------------
  {
    auto policy = make_baseline_policy(cfg.baseline);
    android::ProcessManager pm(res.catalog, pm_cfg, *policy,
                               &res.baseline_trace);
    for (const android::UsageEvent& ev : res.events) {
      pm.launch(ev.app, ev.time_s);
    }
    res.baseline = pm.metrics();
  }

  // ---- Proposed run ---------------------------------------------------
  {
    AppAffectTable table;
    if (cfg.table_source == AffectTableSource::kAnalytic) {
      // Seed the table with the analytic profiles of every emotion
      // appearing in the timeline.
      std::set<affect::Emotion> seen;
      for (const auto& seg : cfg.timeline.segments) {
        if (seen.insert(seg.emotion).second) {
          table.learn_from_profile(
              seg.emotion, android::profile_for_emotion(seg.emotion),
              res.catalog);
        }
      }
    } else {
      // Learn online from warm-up sessions generated with a different
      // seed (finite observation of the same user behaviour).
      android::MonkeyConfig warm_cfg = cfg.monkey;
      warm_cfg.seed = cfg.monkey.seed ^ 0x5bd1e995u;
      android::MonkeyScript warm_monkey(res.catalog, warm_cfg);
      for (int rep = 0; rep < cfg.warmup_repeats; ++rep) {
        for (const android::UsageEvent& ev :
             warm_monkey.generate(cfg.timeline)) {
          table.observe(ev.emotion, ev.app);
        }
      }
    }
    EmotionalKillPolicy policy(table);
    android::ProcessManager pm(res.catalog, pm_cfg, policy,
                               &res.proposed_trace);
    for (const android::UsageEvent& ev : res.events) {
      // The classifier's stable emotion drives the rank generator.
      if (policy.emotion() != ev.emotion) {
        policy.set_emotion(ev.emotion);
        res.proposed_trace.record(ev.time_s,
                                  android::TraceEventType::kEmotionChange, 0,
                                  std::string(affect::emotion_name(ev.emotion)));
      }
      pm.launch(ev.app, ev.time_s);
    }
    res.proposed = pm.metrics();
  }
  return res;
}

}  // namespace affectsys::core
