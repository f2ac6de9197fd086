// Host description for the BENCH_*.json files, so two files from
// different machines or build types can be told apart before their
// numbers are compared.
#pragma once

#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <thread>

#include "obs/json.hpp"

namespace affectsys::bench {

/// Cores this process may run on (what `nproc` prints).
inline std::uint64_t host_nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::uint64_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Writes the "host_nproc" and "build_type" keys into the open object
/// (AFFECTSYS_BUILD_TYPE comes from bench/CMakeLists.txt).
inline void write_host_info(obs::JsonWriter& w) {
  w.key("host_nproc").value(host_nproc());
  w.key("build_type").value(AFFECTSYS_BUILD_TYPE);
}

}  // namespace affectsys::bench
