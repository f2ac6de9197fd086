// Serve-loop benchmark: one workload per process, driven through the
// public serve API (SharedWorkload, SessionConfig, SessionManager) as a
// closed loop — a fixed session count, ticks back to back, each tick
// advancing 100 ms of media for every due session.  Below the knee no
// queue forms between paced 100 ms ticks, so the tick service time
// measured here is the latency a real-time deployment sees.
//
//   perfbench_serve --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 sets the workload up three times (setup_s is the median),
// measures the last set-up for --seconds — and for at least 1000 ticks
// and 1000 labels, so p99 has ten samples beyond it — checks the
// outputs and prints the end-to-end metrics.  --trace 1 runs the
// workload untraced, replays the same ticks stage by stage with spans
// (replay.hpp), checks that the replay reproduced the untraced run
// exactly and prints the per-layer metrics.  Either way the last line
// of stdout is the JSON result perfbench/run.py checks and forwards; a
// failed check makes it "correct": false and the exit code 1.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "adaptive/modes.hpp"
#include "core/thread_pool.hpp"
#include "obs/alloc_hooks.hpp"
#include "obs/metrics.hpp"
#include "replay.hpp"
#include "stats.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetups = 3;                  ///< setup_s is their median
constexpr std::uint64_t kWarmupTicks = 30;  ///< clip wraps, window cadence live
constexpr std::size_t kMinSamples = 1000;   ///< p99 with ten samples beyond
constexpr std::size_t kMinTraceTicks = 200;
constexpr double kMaxTimedS = 100.0;        ///< stop chasing the sample floor
/// Local ticks (30 s of media) the label check replays standalone.
constexpr std::uint64_t kLabelCheckTicks = 300;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

template <typename T>
double d(T v) {
  return static_cast<double>(v);
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return ratio(s, d(v.size()));
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
};

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value);
    } else if (arg == "--trace") {
      o.trace = std::stoi(value);
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  if (o.trace != 0 && o.trace != 1) throw std::invalid_argument("--trace is 0 or 1");
  return o;
}

std::size_t host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// VmHWM of this process in MB (Linux reports ru_maxrss in kB).
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return d(ru.ru_maxrss) / 1024.0;
}

/// Display slots tick_media has owed a session after `ticks` local
/// ticks: the frame-carry arithmetic Session::tick_media runs.
std::uint64_t slots_due(const serve::SessionConfig& cfg, std::uint64_t ticks) {
  double carry = 0.0;
  std::uint64_t total = 0;
  for (std::uint64_t t = 0; t < ticks; ++t) {
    carry += cfg.fps * cfg.tick_s;
    const auto budget = static_cast<std::uint64_t>(carry);
    carry -= d(budget);
    total += budget;
  }
  return total;
}

/// Metric series in the global registry: the keys one level inside its
/// "counters", "gauges" and "histograms" sections.
std::size_t registry_series() {
  const std::string json = obs::Registry::global().to_json();
  std::size_t depth = 0;
  std::size_t series = 0;
  bool in_string = false;
  bool escaped = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
        std::size_t j = i + 1;
        while (j < json.size() && json[j] == ' ') ++j;
        if (depth == 2 && j < json.size() && json[j] == ':') ++series;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
    }
  }
  return series;
}

/// Check (d) reads SessionManager::feature_cache() for as long as the
/// server has a feature-bank cache to build; once the cache is deleted
/// there is nothing left to check.
template <typename Manager>
bool feature_cache_built(const Manager& m) {
  if constexpr (requires { m.feature_cache(); }) {
    return m.feature_cache() != nullptr;
  } else {
    return false;
  }
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

using Failures = std::vector<std::string>;

// ---------------------------------------------------------------- set-up

/// A SessionManager with the workload's sessions admitted.
struct Served {
  std::unique_ptr<serve::SessionManager> mgr;
  std::vector<conf::RoomId> rooms;
  std::vector<const serve::Session*> sessions;  ///< index = id - 1
};

/// Admits every session on the workload's schedule, ticking between
/// admissions; returns right after the last admission.
Served admit_all(const World& w) {
  Served s;
  s.mgr = std::make_unique<serve::SessionManager>(w.server, w.env());
  for (std::size_t r = 0; r < w.spec.rooms; ++r) {
    s.rooms.push_back(s.mgr->create_room());
  }
  for (std::size_t i = 0; i < w.spec.sessions; ++i) {
    while (s.mgr->stats().ticks < w.admit_tick(i)) s.mgr->tick();
    const std::size_t room = w.room_of(i);
    const serve::SessionId id =
        room == 0 ? s.mgr->create_session(w.sessions[i])
                  : s.mgr->create_session(w.sessions[i], s.rooms[room - 1]);
    if (id != i + 1) {
      throw std::logic_error("session ids must follow admission order");
    }
    s.sessions.push_back(&s.mgr->session(id));
  }
  return s;
}

/// The same admission schedule, into the traced replay.
void admit_all(Replay& r, const World& w) {
  for (std::size_t i = 0; i < w.spec.sessions; ++i) {
    while (r.now() < w.admit_tick(i)) r.tick(nullptr, 0);
    r.admit(i);
  }
}

struct SetUp {
  std::unique_ptr<World> world;
  Served served;  ///< declared after world, so torn down before it
  double seconds = 0.0;
};

/// Set-up as setup_s times it: classifier training, workload synthesis
/// and clip encoding, server construction and the admission ticks, up
/// to the moment the last session is admitted.
SetUp set_up(const WorkloadSpec& spec, std::uint64_t seed) {
  const auto t0 = Clock::now();
  SetUp s;
  s.world = build_world(spec, seed);
  s.served = admit_all(*s.world);
  s.seconds = since(t0);
  return s;
}

// ------------------------------------------------------------ timed loop

/// Operation tallies summed over sessions.  Operations are windows
/// offered plus picture slots due.
struct Ops {
  std::uint64_t offered = 0;
  /// Windows shed by backpressure plus slots shed by the overload ladder.
  std::uint64_t shed = 0;
  std::uint64_t pictures_lost = 0;  ///< to decode errors or the network
};

Ops tally(const World& w, const Served& s) {
  Ops o;
  for (std::size_t i = 0; i < s.sessions.size(); ++i) {
    const serve::Session& ses = *s.sessions[i];
    const serve::SessionStats& st = ses.stats();
    o.offered += st.windows_enqueued + ses.dropped_windows() +
                 slots_due(w.sessions[i], st.ticks);
    o.shed += ses.dropped_windows() + st.frames_dropped;
    o.pictures_lost += st.pictures_lost + st.nals_lost;
  }
  return o;
}

struct Timed {
  std::vector<double> tick_ms;
  std::vector<double> label_ms;
  std::uint64_t unmatched_labels = 0;
  std::uint64_t session_runs = 0;
  double wall_s = 0.0;  ///< wall time of the timed loop
  std::uint64_t allocs = 0;
  std::uint64_t due_min = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t due_max = 0;
  Ops ops;  ///< over the timed ticks
};

/// Ticks back to back for `seconds`, and until at least `min_ticks`
/// ticks and `min_labels` labels are measured.  Between ticks it reads
/// every session's (windows_enqueued, results_applied) and matches
/// windows to labels per session, FIFO.
Timed run_timed(const World& w, Served& s, double seconds,
                std::size_t min_ticks, std::size_t min_labels) {
  serve::SessionManager& mgr = *s.mgr;
  const std::size_t n = s.sessions.size();
  LabelLatency labels(n, w.sessions.front().tick_s * 1000.0);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> last(n);
  for (std::size_t i = 0; i < n; ++i) {
    const serve::SessionStats& st = s.sessions[i]->stats();
    last[i] = {st.windows_enqueued, st.results_applied};
    labels.preload(i, st.windows_enqueued - st.results_applied);
  }
  const Ops before = tally(w, s);
  const std::uint64_t runs0 = mgr.stats().session_runs;

  Timed out;
  const auto start = Clock::now();
  for (;;) {
    const double elapsed = since(start);
    const bool enough = out.tick_ms.size() >= min_ticks &&
                        labels.latencies_ms().size() >= min_labels;
    if ((elapsed >= seconds && enough) || elapsed >= kMaxTimedS) break;

    const std::uint64_t tick = mgr.stats().ticks;
    const std::uint64_t runs = mgr.stats().session_runs;
    const std::uint64_t allocs = obs::alloc_count();
    const auto t0 = Clock::now();
    mgr.tick();
    const auto t1 = Clock::now();
    out.allocs += obs::alloc_count() - allocs;
    const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    out.tick_ms.push_back(ms);
    const std::uint64_t due = mgr.stats().session_runs - runs;
    out.due_min = std::min(out.due_min, due);
    out.due_max = std::max(out.due_max, due);

    for (std::size_t i = 0; i < n; ++i) {
      const serve::SessionStats& st = s.sessions[i]->stats();
      labels.staged(i, tick, st.windows_enqueued - last[i].first);
      labels.applied(i, tick, st.results_applied - last[i].second, ms);
      last[i] = {st.windows_enqueued, st.results_applied};
    }
  }
  out.wall_s = since(start);
  out.session_runs = mgr.stats().session_runs - runs0;
  out.label_ms = labels.latencies_ms();
  out.unmatched_labels = labels.unmatched();
  const Ops after = tally(w, s);
  out.ops.offered = after.offered - before.offered;
  out.ops.shed = after.shed - before.shed;
  out.ops.pictures_lost = after.pictures_lost - before.pictures_lost;
  return out;
}

// ---------------------------------------------------------------- checks

bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// True when `prefix`'s raw labels (window for window, probabilities
/// bitwise) and smoothed emotion trace open `full`'s.
bool labels_prefix(const serve::SessionReport& prefix,
                   const serve::SessionReport& full) {
  if (prefix.windows.size() > full.windows.size() ||
      prefix.stable_trace.size() > full.stable_trace.size() ||
      !std::equal(prefix.stable_trace.begin(), prefix.stable_trace.end(),
                  full.stable_trace.begin())) {
    return false;
  }
  for (std::size_t i = 0; i < prefix.windows.size(); ++i) {
    const serve::WindowRecord& x = prefix.windows[i];
    const serve::WindowRecord& y = full.windows[i];
    if (x.seq != y.seq || x.t_end != y.t_end || x.emotion != y.emotion ||
        !same_bits({&x.confidence, 1}, {&y.confidence, 1}) ||
        !same_bits(x.probabilities, y.probabilities)) {
      return false;
    }
  }
  return true;
}

bool same_labels(const serve::SessionReport& a, const serve::SessionReport& b) {
  return a.windows.size() == b.windows.size() &&
         a.stable_trace.size() == b.stable_trace.size() && labels_prefix(a, b);
}

std::string who(std::size_t index) {
  return "session " + std::to_string(index + 1) + ": ";
}

/// (a) A sampled session's served labels match a standalone Session
/// classifying inline with the same seed, window for window, over the
/// first kLabelCheckTicks local ticks.  The standalone copy plays no
/// video (fps 0, no transport, no apps): labels depend on audio alone,
/// and skipping decode keeps the check cheap.
void check_labels(const World& w, const Served& s, std::size_t index,
                  Failures& f) {
  const serve::SessionReport served = s.sessions[index]->report();
  serve::SessionConfig cfg = w.sessions[index];
  cfg.fps = 0.0;
  cfg.transport = {};
  cfg.simulcast = {};
  cfg.fault = {};
  serve::SessionEnv env = w.env();
  env.app_table = nullptr;
  env.catalog = nullptr;
  serve::Session solo(index + 1, cfg, env, /*inline_inference=*/true,
                      w.admit_tick(index));
  const std::uint64_t ticks = std::min(served.stats.ticks, kLabelCheckTicks);
  for (std::uint64_t t = 0; t < ticks; ++t) {
    solo.pump_audio(t);
    solo.tick_media(t, 0);
  }
  const serve::SessionReport ref = solo.report();
  if (ref.windows.empty()) {
    f.push_back(who(index) + "no labels to compare");
  } else if (!labels_prefix(ref, served)) {
    f.push_back(who(index) + "served labels differ from inline inference");
  }
}

/// (b) Every staged window got exactly one label, and every picture slot
/// was decoded, deleted, shed or lost; (c) no decode errors unless the
/// workload injects packet loss.
void check_accounting(const World& w, const serve::Session& ses,
                      std::size_t index, Failures& f) {
  const serve::SessionStats& st = ses.stats();
  const serve::SessionConfig& cfg = w.sessions[index];
  if (st.windows_enqueued != st.results_applied || ses.inflight() != 0) {
    f.push_back(who(index) + "staged windows and applied labels differ");
  }
  if (cfg.record_trace) {
    const serve::SessionReport rep = ses.report();
    bool in_order = rep.windows.size() == st.results_applied;
    for (std::size_t k = 0; in_order && k < rep.windows.size(); ++k) {
      in_order = rep.windows[k].seq == k;
    }
    if (!in_order) f.push_back(who(index) + "labels missing or out of order");
  }
  const std::uint64_t due = slots_due(cfg, st.ticks);
  if (!cfg.transport.enabled) {
    if (st.frames_decoded + st.nals_deleted + st.frames_dropped +
            st.pictures_lost != due) {
      f.push_back(who(index) + "picture slots unaccounted for");
    }
  } else {
    // Over the network the sender walks every slot the ladder did not
    // shed (forwarding or deleting it), and the receiver can only decode
    // or lose what was sent; the last ticks' pictures may be in flight.
    std::uint64_t walked = 0;
    for (const std::uint64_t p : st.layer_pictures) walked += p;
    if (walked + st.frames_dropped != due ||
        st.frames_decoded + st.pictures_lost + st.nals_deleted > walked) {
      f.push_back(who(index) + "picture slots unaccounted for");
    }
  }
  if (!w.spec.lossy && (st.decode_errors != 0 || st.pictures_lost != 0)) {
    f.push_back(who(index) + "decode errors without injected loss");
  }
}

/// The end-of-run checks on a drained server: (a) and (b)/(c) above,
/// (d) the feature-bank cache was never built, and (e) every timed tick
/// had the same number of due sessions and every label matched a
/// staged window.
void check_served(const World& w, const Served& s, const Timed& t,
                  Failures& f) {
  for (const std::size_t i : w.sampled) check_labels(w, s, i, f);
  for (std::size_t i = 0; i < s.sessions.size(); ++i) {
    check_accounting(w, *s.sessions[i], i, f);
  }
  if (feature_cache_built(*s.mgr)) {
    f.push_back("the feature-bank cache was built");
  }
  if (t.due_min != t.due_max) {
    f.push_back("due sessions per tick varied from " + std::to_string(t.due_min) +
                " to " + std::to_string(t.due_max));
  }
  if (t.unmatched_labels != 0) {
    f.push_back(std::to_string(t.unmatched_labels) +
                " labels arrived with no staged window");
  }
}

/// The traced replay reproduced the untraced run: decode digests, label
/// traces, layer traces, counters and room speaker traces.
void check_replay(const std::vector<serve::SessionReport>& served,
                  const std::vector<conf::RoomReport>& rooms, const Replay& r,
                  Failures& f) {
  if (r.unmatched_results() != 0) {
    f.push_back("replay: results arrived with no staged window");
  }
  for (std::size_t i = 0; i < served.size(); ++i) {
    const serve::SessionReport rep = r.session(i).report();
    const serve::SessionReport& ref = served[i];
    const serve::SessionStats& a = rep.stats;
    const serve::SessionStats& b = ref.stats;
    if (rep.decode_digest != ref.decode_digest) {
      f.push_back("replay " + who(i) + "decode digest differs");
    }
    if (!same_labels(rep, ref)) f.push_back("replay " + who(i) + "labels differ");
    if (rep.layer_trace != ref.layer_trace) {
      f.push_back("replay " + who(i) + "layer trace differs");
    }
    if (a.ticks != b.ticks || a.results_applied != b.results_applied ||
        a.frames_decoded != b.frames_decoded || a.nals_deleted != b.nals_deleted ||
        a.frames_dropped != b.frames_dropped || a.app_launches != b.app_launches ||
        a.packets_sent != b.packets_sent || a.packets_lost != b.packets_lost ||
        a.mode_switches != b.mode_switches) {
      f.push_back("replay " + who(i) + "counters differ");
    }
  }
  for (std::size_t k = 0; k < rooms.size(); ++k) {
    if (!(r.room(k).report() == rooms[k])) {
      f.push_back("replay room " + std::to_string(k + 1) +
                  ": speaker trace differs");
    }
  }
}

// ---------------------------------------------------------------- output

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

/// Prints every metric by name, reports failed checks on stderr, then
/// the result line.  Returns the process exit code.
int finish(Failures f, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-40s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    if (!std::isfinite(m.value)) f.push_back(m.name + " is not finite");
  }
  constexpr std::size_t kShown = 20;
  for (std::size_t i = 0; i < f.size() && i < kShown; ++i) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", f[i].c_str());
  }
  if (f.size() > kShown) {
    std::fprintf(stderr, "perfbench: ... and %zu more failed checks\n",
                 f.size() - kShown);
  }
  print_result(f.empty(), std::max<std::uint64_t>(attempted, 1), failed, metrics);
  return f.empty() ? 0 : 1;
}

// ------------------------------------------------------------ end to end

int run_end_to_end(const WorkloadSpec& spec, const Options& opt) {
  std::vector<double> setup_s;
  SetUp s;
  for (int k = 0; k < kSetups; ++k) {
    SetUp next = set_up(spec, opt.seed);
    setup_s.push_back(next.seconds);
    if (k + 1 == kSetups) s = std::move(next);
  }
  const World& w = *s.world;
  for (std::uint64_t k = 0; k < kWarmupTicks; ++k) s.served.mgr->tick();
  const Timed t = run_timed(w, s.served, opt.seconds, kMinSamples, kMinSamples);
  s.served.mgr->drain();

  Failures f;
  check_served(w, s.served, t, f);
  if (!reportable(t.tick_ms.size(), 99) || !reportable(t.label_ms.size(), 99)) {
    f.push_back("too few samples for p99");
  }

  const std::uint64_t failures = t.ops.shed + t.ops.pictures_lost;
  std::printf("samples: %zu ticks, %zu labels, %llu due sessions per tick, "
              "%d set-ups, S_th %zu B\n",
              t.tick_ms.size(), t.label_ms.size(),
              static_cast<unsigned long long>(t.due_max), kSetups,
              w.sessions.front().selector.s_th);
  std::printf("%-40s %14.6g ratio (%llu of %llu operations)\n",
              "failed_op_ratio", ratio(d(failures), d(t.ops.offered)),
              static_cast<unsigned long long>(failures),
              static_cast<unsigned long long>(t.ops.offered));
  // Printed, not bounded: across seeds hd_playback's p99 spreads wider
  // than any bound the result may carry (README.md).
  std::printf("%-40s %14.6g ms\n", "tick_ms_p99", percentile(t.tick_ms, 99));

  const std::vector<Metric> metrics = {
      {"tick_ms_p50", percentile(t.tick_ms, 50), "ms"},
      {"session_ticks_per_s", ratio(d(t.session_runs), t.wall_s), "1/s"},
      {"label_latency_ms_p50", percentile(t.label_ms, 50), "ms"},
      {"label_latency_ms_p99", percentile(t.label_ms, 99), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"setup_s", percentile(setup_s, 50), "s"},
  };
  // Pictures lost to injected packet loss are the workload's input, not
  // an operation the server failed; failed_op_ratio above counts them.
  const std::uint64_t failed =
      t.ops.shed + (spec.lossy ? 0 : t.ops.pictures_lost);
  return finish(std::move(f), t.ops.offered, failed, metrics);
}

// ---------------------------------------------------------------- traced

/// One of the program's own call timers (AFFECTSYS_TIME_SCOPE histograms
/// in the global registry): two readings give the calls made and the
/// time they took in between.
struct Timer {
  double sum_ns = 0.0;
  std::uint64_t calls = 0;

  static Timer read(std::string_view name) {
    const obs::Histogram& h = obs::Registry::global().histogram(name);
    return {h.sum(), h.count()};
  }
};

/// Per-session counters, per-room stats and the program's timers at one
/// point of the replay.
struct Snapshot {
  std::vector<serve::SessionStats> stats;
  std::uint64_t windows_considered = 0;
  std::uint64_t windows_classified = 0;
  std::uint64_t dominance_moves = 0;
  Timer decode;   ///< Decoder::decode_slice, deblocking included
  Timer deblock;  ///< deblock_frame
  Timer launch;   ///< ProcessManager::launch
};

Snapshot snapshot(const Replay& r, const World& w) {
  Snapshot s;
  s.decode = Timer::read("h264.decode_ns");
  s.deblock = Timer::read("h264.deblock_ns");
  s.launch = Timer::read("android.launch_ns");
  for (std::size_t i = 0; i < r.admitted(); ++i) {
    const serve::SessionReport rep = r.session(i).report();
    s.stats.push_back(rep.stats);
    s.windows_considered += rep.realtime.windows_considered;
    s.windows_classified += rep.realtime.windows_classified;
  }
  for (std::size_t k = 0; k < w.spec.rooms; ++k) {
    s.dominance_moves += r.room(k).stats().speaker_switches;
  }
  return s;
}

/// What the untraced phase of a traced run measured.
struct Untraced {
  double tick_ms_mean = 0.0;
  double allocs_per_tick = 0.0;
  core::BufferPoolStats pool;
  std::size_t registry_series = 0;
};

std::vector<Metric> layer_metrics(const World& w, const Replay& r,
                                  const Tracer& tr, std::size_t traced_ticks,
                                  const Snapshot& a, const Snapshot& z,
                                  const Untraced& u, Failures& f) {
  // Stage lines, per tick.
  std::vector<TickTiming> timing(traced_ticks);
  double due_sessions = 0.0;
  for (const Span& s : tr.stages()) {
    TickTiming& t = timing.at(s.tick);
    switch (s.kind) {
      case SpanKind::kTick: t.tick_ms += s.ms(); break;
      case SpanKind::kDue:
        t.stage_ms[kDue] += s.ms();
        due_sessions += d(s.work[work::kDueSessions]);
        break;
      case SpanKind::kAudio: t.stage_ms[kAudio] += s.ms(); break;
      case SpanKind::kRooms: t.stage_ms[kRooms] += s.ms(); break;
      case SpanKind::kInfer: t.stage_ms[kInfer] += s.ms(); break;
      case SpanKind::kMedia: t.stage_ms[kMedia] += s.ms(); break;
      default: break;
    }
  }
  const Breakdown b = breakdown(timing);
  if (b.unattributed_ms < 0.0) f.push_back("trace: stage spans outlast their tick");

  // Call spans, and the split of multi-layer calls by their work counts
  // where the program keeps no timer of its own: feature extraction
  // inside pump_audio, and transport inside tick_media.
  NonNegativeFit audio_fit(2);  // {windows, 1}
  NonNegativeFit media_fit(5);  // {deblocked, unfiltered, packets, launches, 1}
  double pump_ms = 0.0, media_ms = 0.0, flush_ms = 0.0, room_ms = 0.0;
  std::uint64_t windows = 0, pictures = 0, packets = 0, launches = 0;
  std::uint64_t selector_slots = 0, media_calls = 0, flushes = 0, rows = 0;
  std::uint64_t room_ticks = 0;
  std::array<std::uint64_t, adaptive::kNumDecoderModes> modes{};
  for (const Span& s : tr.calls()) {
    const auto x = [&s](std::size_t k) { return d(s.work[k]); };
    switch (s.kind) {
      case SpanKind::kPumpAudio:
        audio_fit.add({x(work::kWindows), 1.0}, s.ms());
        pump_ms += s.ms();
        windows += s.work[work::kWindows];
        break;
      case SpanKind::kTickMedia:
        media_fit.add({x(work::kDeblockOn), x(work::kDeblockOff),
                       x(work::kPackets), x(work::kLaunches), 1.0},
                      s.ms());
        media_ms += s.ms();
        ++media_calls;
        ++modes.at(s.mode);
        pictures += s.work[work::kDeblockOn] + s.work[work::kDeblockOff];
        packets += s.work[work::kPackets];
        launches += s.work[work::kLaunches];
        selector_slots += s.work[work::kSelectorSlots];
        break;
      case SpanKind::kFlush:
        flush_ms += s.ms();
        ++flushes;
        rows += s.work[work::kRows];
        break;
      case SpanKind::kRoomTick:
        room_ms += s.ms();
        ++room_ticks;
        break;
      default: break;
    }
  }
  const NonNegativeFit::Row audio = audio_fit.solve();
  const NonNegativeFit::Row media = media_fit.solve();

  // Decode, deblock and app launches from the program's timers.  The
  // decode timer covers deblocking, so a picture decoded without the
  // filter costs (decode - deblock) per decode, and one decoded with it
  // adds deblock per deblocked picture.
  const double decode_ns = z.decode.sum_ns - a.decode.sum_ns;
  const double deblock_ns = z.deblock.sum_ns - a.deblock.sum_ns;
  const double unfiltered_ms =
      ratio(decode_ns - deblock_ns, d(z.decode.calls - a.decode.calls)) * 1e-6;
  const double filtered_ms =
      unfiltered_ms + ratio(deblock_ns, d(z.deblock.calls - a.deblock.calls)) * 1e-6;
  const double launch_ms = ratio(z.launch.sum_ns - a.launch.sum_ns,
                                 d(z.launch.calls - a.launch.calls)) * 1e-6;

  // Layer counters over the traced ticks.
  const simulcast::SimulcastClip* clip = w.workload->simulcast_clip();
  const std::size_t top_layer = clip != nullptr ? clip->layer_count() - 1 : 0;
  std::uint64_t deleted = 0, sent = 0, lost = 0, recovered = 0;
  std::uint64_t switches = 0, waited = 0, top = 0, forwarded = 0;
  for (std::size_t i = 0; i < z.stats.size(); ++i) {
    const serve::SessionStats& p = a.stats[i];
    const serve::SessionStats& q = z.stats[i];
    deleted += q.nals_deleted - p.nals_deleted;
    sent += q.packets_sent - p.packets_sent;
    lost += q.packets_lost - p.packets_lost;
    recovered += q.packets_recovered - p.packets_recovered;
    switches += q.layer_switches - p.layer_switches;
    waited += q.layer_wait_pictures - p.layer_wait_pictures;
    for (std::size_t l = 0; l < q.layer_pictures.size(); ++l) {
      const std::uint64_t n = q.layer_pictures[l] - p.layer_pictures[l];
      forwarded += n;
      if (clip != nullptr && l == top_layer) top += n;
    }
  }

  const double ticks = d(traced_ticks);
  const double threads = d(core::global_threads() + 1);
  const auto mode_share = [&](adaptive::DecoderMode m) {
    return ratio(d(modes[static_cast<std::size_t>(m)]), d(media_calls));
  };
  using adaptive::DecoderMode;
  return {
      {"affect.feature_ms_per_window", audio[0], "ms"},
      {"affect.ingest_ms_per_session_tick", audio[1], "ms"},
      {"affect.windows_per_tick", d(windows) / ticks, "windows/tick"},
      {"affect.vad_pass_ratio",
       ratio(d(z.windows_classified - a.windows_classified),
             d(z.windows_considered - a.windows_considered)),
       "ratio"},
      {"h264.decode_ms_per_picture.deblock_on", filtered_ms, "ms"},
      {"h264.decode_ms_per_picture.deblock_off", unfiltered_ms, "ms"},
      {"h264.pictures_per_tick", d(pictures) / ticks, "pictures/tick"},
      {"adaptive.nal_deletion_ratio", ratio(d(deleted), d(selector_slots)),
       "ratio"},
      {"adaptive.mode_share.standard", mode_share(DecoderMode::kStandard), "ratio"},
      {"adaptive.mode_share.deletion", mode_share(DecoderMode::kDeletion), "ratio"},
      {"adaptive.mode_share.deblock_off", mode_share(DecoderMode::kDeblockOff),
       "ratio"},
      {"adaptive.mode_share.combined", mode_share(DecoderMode::kCombined), "ratio"},
      {"nn.flush_ms", ratio(flush_ms, d(flushes)), "ms"},
      {"nn.infer_us_per_window", ratio(flush_ms * 1000.0, d(rows)), "us"},
      {"serve.batch_rows_mean", ratio(d(rows), d(flushes)), "rows"},
      {"serve.flushes_per_tick", d(flushes) / ticks, "flushes/tick"},
      {"serve.backlog_max", d(r.backlog_max()), "windows"},
      {"serve.label_wait_ticks_mean", r.label_wait_ticks_mean(), "ticks"},
      {"net.packets_per_tick", d(packets) / ticks, "packets/tick"},
      {"net.ms_per_packet", media[2], "ms"},
      {"net.loss_ratio", ratio(d(lost), d(sent)), "ratio"},
      {"net.fec_recovery_ratio", ratio(d(recovered), d(lost)), "ratio"},
      {"simulcast.layer_switches", d(switches), "count"},
      {"simulcast.wait_pictures", d(waited), "pictures"},
      {"simulcast.top_layer_share", ratio(d(top), d(forwarded)), "ratio"},
      {"conf.room_tick_us", ratio(room_ms * 1000.0, d(room_ticks)), "us"},
      {"conf.dominance_moves", d(z.dominance_moves - a.dominance_moves), "count"},
      {"core.due_list_us", b.stage_ms[kDue] * 1000.0, "us"},
      {"core.due_sessions_per_tick", due_sessions / ticks, "sessions/tick"},
      {"core.audio_imbalance",
       ratio(b.stage_ms[kAudio] * ticks * threads, pump_ms), "ratio"},
      {"core.media_imbalance",
       ratio(b.stage_ms[kMedia] * ticks * threads, media_ms), "ratio"},
      {"core.allocs_per_tick", u.allocs_per_tick, "allocs/tick"},
      {"core.feature_pool_high_water", d(u.pool.high_water), "blocks"},
      {"core.feature_pool_heap_fallbacks", d(u.pool.heap_fallbacks), "count"},
      {"android.launch_ms", launch_ms, "ms"},
      {"android.launches_per_tick", d(launches) / ticks, "launches/tick"},
      {"obs.registry_series", d(u.registry_series), "series"},
      {"serve.stage_audio_ms", b.stage_ms[kAudio], "ms"},
      {"serve.stage_rooms_ms", b.stage_ms[kRooms], "ms"},
      {"serve.stage_infer_ms", b.stage_ms[kInfer], "ms"},
      {"serve.stage_media_ms", b.stage_ms[kMedia], "ms"},
      {"trace.unattributed_ms", b.unattributed_ms, "ms"},
      {"trace.tick_ms", b.tick_ms, "ms"},
      {"trace.overhead_pct", (ratio(b.tick_ms, u.tick_ms_mean) - 1.0) * 100.0,
       "%"},
  };
}

int run_traced(const WorkloadSpec& spec, const Options& opt) {
  SetUp s = set_up(spec, opt.seed);
  const World& w = *s.world;

  // Untraced phase: the --trace 0 closed loop, for half the time.
  for (std::uint64_t k = 0; k < kWarmupTicks; ++k) s.served.mgr->tick();
  const Timed t = run_timed(w, s.served, opt.seconds / 2.0, kMinTraceTicks, 0);
  Untraced u;
  u.tick_ms_mean = mean(t.tick_ms);
  u.allocs_per_tick = ratio(d(t.allocs), d(t.tick_ms.size()));
  u.pool = s.served.mgr->feature_pool().stats();
  u.registry_series = registry_series();
  s.served.mgr->drain();
  Failures f;
  check_served(w, s.served, t, f);
  std::vector<serve::SessionReport> served_reports;
  for (const serve::Session* ses : s.served.sessions) {
    served_reports.push_back(ses->report());
  }
  std::vector<conf::RoomReport> room_reports;
  for (const conf::RoomId id : s.served.rooms) {
    room_reports.push_back(s.served.mgr->room_report(id));
  }
  s.served = Served{};  // the replay runs alone

  // Traced phase: the same admissions, warm-up and tick count.
  Replay replay(w);
  admit_all(replay, w);
  for (std::uint64_t k = 0; k < kWarmupTicks; ++k) replay.tick(nullptr, 0);
  const Snapshot before = snapshot(replay, w);
  Tracer tracer;
  const std::size_t traced_ticks = t.tick_ms.size();
  for (std::size_t k = 0; k < traced_ticks; ++k) {
    replay.tick(&tracer, static_cast<std::uint32_t>(k));
  }
  const Snapshot after = snapshot(replay, w);
  replay.drain();
  check_replay(served_reports, room_reports, replay, f);

  std::printf("samples: %zu traced ticks, %zu stage spans\n", traced_ticks,
              tracer.stages().size());
  const std::vector<Metric> metrics =
      layer_metrics(w, replay, tracer, traced_ticks, before, after, u, f);
  const std::uint64_t failed =
      t.ops.shed + (spec.lossy ? 0 : t.ops.pictures_lost);
  return finish(std::move(f), t.ops.offered, failed, metrics);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  int rc = 2;
  try {
    const perfbench::Options opt = perfbench::parse_options(argc, argv);
    const perfbench::WorkloadSpec* spec = perfbench::find_workload(opt.workload);
    if (spec == nullptr) {
      throw std::invalid_argument("unknown workload " + opt.workload);
    }
    const std::size_t cpus = perfbench::host_cpus();
    // The caller runs parallel_for chunks too, so nproc - 1 workers keep
    // the process within the host's cores.
    affectsys::core::set_global_threads(cpus - 1);
    std::printf(
        "{\"context\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
        "\"seconds\": %g, \"host_nproc\": %zu, \"pool_threads\": %zu, "
        "\"build_type\": \"%s\"}}\n",
        opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
        opt.trace, opt.seconds, cpus, affectsys::core::global_threads(),
        PERFBENCH_BUILD_TYPE);
    rc = opt.trace == 0 ? perfbench::run_end_to_end(*spec, opt)
                        : perfbench::run_traced(*spec, opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_serve: %s\n", e.what());
    rc = 2;
  }
  // Drain the pool's leftover helper tasks while the metrics registry
  // they write into is still alive, so exit cannot corrupt the heap.
  affectsys::core::set_global_threads(0);
  std::fflush(stdout);
  return rc;
}
