// The serve-loop benchmark's four traffic mixes, and the set-up that
// turns one of them plus a seed into everything a server needs: the
// shared media, a trained classifier, the app catalog and one config
// per session.  Every random choice (speech bank, scene, classifier
// corpus and training, catalog, session scripts, sampled sessions,
// packet loss) derives from the one workload seed.
//
// Only traffic is configured here.  The server knobs later changes are
// expected to delete (shards, work_steal, feature_bank_cache, batcher,
// ladder, script_quantum_samples) keep their defaults and no reference
// kernel is called; the one scheduler flag idle_fleet needs is set in a
// way that still compiles once the timer wheel is the only scheduler.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "affect/classifier.hpp"
#include "android/app.hpp"
#include "core/affect_table.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace adaptive = affectsys::adaptive;
namespace affect = affectsys::affect;
namespace android = affectsys::android;
namespace conf = affectsys::conf;
namespace core = affectsys::core;
namespace fault = affectsys::fault;
namespace h264 = affectsys::h264;
namespace nn = affectsys::nn;
namespace obs = affectsys::obs;
namespace serve = affectsys::serve;
namespace simulcast = affectsys::simulcast;

enum class Kind { kLiveSessions, kHdPlayback, kLossyConference, kIdleFleet };

struct WorkloadSpec {
  Kind kind = Kind::kLiveSessions;
  std::string_view name;
  std::size_t sessions = 0;
  std::size_t admit_per_tick = 1;
  std::size_t rooms = 0;  ///< conference rooms; members join round-robin
  bool wheel = false;     ///< duty-cycled sessions on the timer wheel
  bool lossy = false;     ///< seeded packet loss: pictures may be lost
};

/// Null for an unknown name.
const WorkloadSpec* find_workload(std::string_view name);

/// splitmix64 of (seed, salt): independent streams from one seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t salt);

/// One set-up's product.  Sessions are admitted in index order, so the
/// server hands session `index` the id index + 1.
struct World {
  WorkloadSpec spec;
  std::uint64_t seed = 0;
  std::unique_ptr<serve::SharedWorkload> workload;
  std::unique_ptr<affect::AffectClassifier> classifier;
  std::vector<android::App> catalog;
  core::AppAffectTable table;
  serve::ServerConfig server;
  std::vector<serve::SessionConfig> sessions;
  /// The two sessions the label check replays standalone.
  std::array<std::size_t, 2> sampled{};

  serve::SessionEnv env() const;
  /// 1-based room of session `index`, or 0 outside conferences.
  std::size_t room_of(std::size_t index) const {
    return spec.rooms == 0 ? 0 : index % spec.rooms + 1;
  }
  /// Server tick before which session `index` is admitted.
  std::uint64_t admit_tick(std::size_t index) const {
    return index / spec.admit_per_tick;
  }
};

/// Trains the classifier, synthesizes the speech bank, encodes the clip
/// and derives the session configs: the expensive part of set-up.
std::unique_ptr<World> build_world(const WorkloadSpec& spec,
                                   std::uint64_t seed);

}  // namespace perfbench
