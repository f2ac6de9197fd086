#!/usr/bin/env bash
# Tier-1 verification across the build matrix.  Run from the repo root:
#
#   tools/run_verify.sh            # every pass below
#   tools/run_verify.sh default    # stock build (threads ON) only
#   tools/run_verify.sh threads    # stock build on a 4-worker pool, tier-1
#                                  # three times over under parallel ctest
#   tools/run_verify.sh nothreads  # serial reference (-DAFFECTSYS_THREADS=OFF)
#   tools/run_verify.sh sanitize   # ASan+UBSan build
#   tools/run_verify.sh tsan       # TSan build, race-sensitive tests plus
#                                  # the kernel suite
#   tools/run_verify.sh kernels    # Release build: kernel suite + bench
#   tools/run_verify.sh serve      # session-server suite under TSan (pool-
#                                  # size sweep) and Release (+ bench_serve
#                                  # gates)
#   tools/run_verify.sh fault      # fuzz suite under ASan+UBSan, TSan and
#                                  # Release (+ bench_fault overhead gate)
#   tools/run_verify.sh net        # media-transport suite under ASan+UBSan
#                                  # and Release (+ bench_net tick-overhead gate)
#   tools/run_verify.sh simulcast  # simulcast suite under ASan+UBSan and
#                                  # Release (+ bench_simulcast gates)
#   tools/run_verify.sh conference # conference suite under ASan+UBSan and
#                                  # TSan (the room stage rides the pool),
#                                  # then Release (+ bench_conference gates)
#   tools/run_verify.sh perfbench  # repo benchmark: its selftest, then one
#                                  # short traced run per BENCHMARK.json
#                                  # workload, each "correct": true with
#                                  # no label waiting a tick
#
# Build trees: build/ (default), build-nothreads/, build-asan/,
# build-tsan/ and build-release/ (kernels).  Tests carry the ctest label "tier1"; the sanitized
# configuration additionally labels them "sanitize", and the
# concurrency-sensitive suites (thread pool, parallel determinism,
# the realtime pipeline's locked sink path, session serving) carry
# "tsan", which the TSan pass runs together with the small "kernels"
# suite — other serial suites cannot race and TSan slows them ~10x for
# nothing.
set -euo pipefail

cd "$(dirname "$0")/.."
jobs=$(nproc 2>/dev/null || echo 4)
mode="${1:-all}"

run_pass() {
  local dir="$1"; shift
  local label="$1"; shift
  local ctest_label="$1"; shift
  echo "=== [$label] configure + build ($dir) ==="
  cmake -B "$dir" -S . "$@"
  cmake --build "$dir" -j "$jobs"
  echo "=== [$label] ctest -L $ctest_label ==="
  (cd "$dir" && ctest --output-on-failure -j "$jobs" -L "$ctest_label")
}

pass_default()   { run_pass build default tier1; }
# Threads pass: the default pool size follows the host's cores, so a
# 1-core host never runs tier-1 on worker threads.  Force four, and
# repeat every test up to three times under parallel ctest, so
# thread-count and process-exit bugs show up on any host.
pass_threads() {
  echo "=== [threads] configure + build (build) ==="
  cmake -B build -S .
  cmake --build build -j "$jobs"
  echo "=== [threads] ctest -L tier1, AFFECTSYS_NUM_THREADS=4, 3 repeats ==="
  (cd build && AFFECTSYS_NUM_THREADS=4 ctest --output-on-failure -j "$jobs" \
     -L tier1 --repeat until-fail:3)
}
pass_nothreads() { run_pass build-nothreads nothreads tier1 -DAFFECTSYS_THREADS=OFF; }
pass_sanitize()  { run_pass build-asan sanitize tier1 -DAFFECTSYS_SANITIZE=ON; }
# The parallel suites force worker threads via set_global_threads(), so
# TSan sees real cross-thread traffic even on a single-core host.  The
# kernel suite rides along (about a second) so its exactness pins, the
# FFT oracle among them, hold in every build tree this script makes.
pass_tsan()      { run_pass build-tsan tsan 'tsan|kernels' -DAFFECTSYS_SANITIZE=thread; }

# Kernel pass: Release build (benchmarks must not time RelWithDebInfo
# artifacts), the optimized-vs-reference proof suite (label "kernels"),
# then bench_kernels regenerating BENCH_kernels.json.  If a committed
# BENCH_kernels.json exists, two numbers are soft-checked against it:
# the feature pipeline's windows_per_sec must not fall more than 10%
# below the committed one, and the deblocker's ns_per_frame must not
# rise more than 10% above it.  bench_kernels itself exits nonzero,
# without writing the file, on a byte mismatch against a kernel's
# reference or the golden decode digests; the pass then fails with the
# first failure.
pass_kernels() {
  run_pass build-release kernels kernels -DCMAKE_BUILD_TYPE=Release
  echo "=== [kernels] bench_kernels ==="
  local fresh="build-release/BENCH_kernels.json"
  local first_fail="" status=0
  rm -f "$fresh"
  ./build-release/bench/bench_kernels "$fresh" || status=$?
  if (( status != 0 )); then
    first_fail="bench_kernels exited with status $status"
    echo "FAIL: $first_fail" >&2
  fi
  if [[ ! -f BENCH_kernels.json ]]; then
    echo "no committed BENCH_kernels.json; skipping soft-checks"
  elif [[ ! -f "$fresh" ]]; then
    echo "bench_kernels wrote no $fresh; skipping soft-checks"
  else
    # obs::JsonWriter emits one key per line; the leading quote keeps
    # "windows_per_sec" from matching the ref_windows_per_sec line (and
    # "ns_per_frame" the ref_ns_per_frame one).
    local check key better committed_v fresh_v
    for check in windows_per_sec:higher ns_per_frame:lower; do
      key=${check%%:*}
      better=${check##*:}
      committed_v=$(grep -o "\"$key\": [0-9.eE+-]*" BENCH_kernels.json | head -1 | awk '{print $2}')
      fresh_v=$(grep -o "\"$key\": [0-9.eE+-]*" "$fresh" | head -1 | awk '{print $2}')
      echo "$key: committed=${committed_v:-none} fresh=${fresh_v:-none}"
      if [[ -z "$committed_v" || -z "$fresh_v" ]]; then
        echo "FAIL: $key missing from BENCH_kernels.json" >&2
        first_fail=${first_fail:-"$key missing"}
      elif ! awk -v f="$fresh_v" -v c="$committed_v" -v b="$better" \
             'BEGIN { exit !(b == "higher" ? f >= 0.9 * c : f <= 1.1 * c) }'; then
        echo "FAIL: $key regressed >10% vs committed BENCH_kernels.json" >&2
        first_fail=${first_fail:-"$key regressed >10%"}
      fi
    done
  fi
  if [[ -n "$first_fail" ]]; then
    echo "kernels pass failed: $first_fail" >&2
    exit 1
  fi
}

# Serve pass: the session-server suite (label "serve") twice — under
# TSan first, because the serve suite sweeps the pool size (0, 1, the
# default and 2x the cores) over one mixed fleet, which is where
# cross-session races would live (the buffer pool's cross-thread
# release test rides the same label) — then in Release, followed by
# bench_serve regenerating BENCH_serve.json.  The sustained session
# counts (the active sweep's knee and the mostly-idle fleet) are
# soft-checked against the committed copy (>10% regression fails);
# bench_serve itself exits nonzero when batched inference loses to
# per-session forwards at 8 rows, batched/unbatched stop being
# bit-identical, or warm pooled ticks touch the allocator — so those
# gates need no shell logic.
pass_serve() {
  run_pass build-tsan serve-tsan serve -DAFFECTSYS_SANITIZE=thread
  run_pass build-release serve serve -DCMAKE_BUILD_TYPE=Release
  echo "=== [serve] bench_serve ==="
  local fresh="build-release/BENCH_serve.json"
  ./build-release/bench/bench_serve "$fresh"
  if [[ -f BENCH_serve.json ]]; then
    local key committed_n fresh_n
    for key in sustained_sessions sustained_idle_sessions; do
      committed_n=$(grep -o "\"$key\": [0-9]*" BENCH_serve.json | awk '{print $2}')
      fresh_n=$(grep -o "\"$key\": [0-9]*" "$fresh" | awk '{print $2}')
      echo "$key: committed=${committed_n:-none} fresh=$fresh_n"
      if [[ -z "$committed_n" ]]; then continue; fi
      if ! awk -v f="$fresh_n" -v c="$committed_n" 'BEGIN { exit !(f >= 0.9 * c) }'; then
        echo "FAIL: $key regressed >10% vs committed BENCH_serve.json" >&2
        exit 1
      fi
    done
  else
    echo "no committed BENCH_serve.json; skipping sustained-sessions check"
  fi
}

# Fault pass: the seeded structured-fuzz suite (label "fault", 504
# plans) run where each class of bug is visible — ASan+UBSan for memory
# errors on the fault paths, TSan for races between faulted/quarantined
# sessions, Release for the full plan sweep at speed — then bench_fault,
# which hard-fails on rate-0 identity loss, replay divergence, or >2%
# clean-path overhead.  The committed BENCH_fault.json is soft-checked:
# faulted-decode throughput must stay within 10%.
pass_fault() {
  run_pass build-asan fault-asan fault -DAFFECTSYS_SANITIZE=ON
  run_pass build-tsan fault-tsan fault -DAFFECTSYS_SANITIZE=thread
  run_pass build-release fault-release fault -DCMAKE_BUILD_TYPE=Release
  echo "=== [fault] bench_fault ==="
  local fresh="build-release/BENCH_fault.json"
  ./build-release/bench/bench_fault "$fresh"
  if [[ -f BENCH_fault.json ]]; then
    local committed_mbs fresh_mbs
    committed_mbs=$(grep -o '"mb_per_sec": [0-9.]*' BENCH_fault.json | head -1 | awk '{print $2}')
    fresh_mbs=$(grep -o '"mb_per_sec": [0-9.]*' "$fresh" | head -1 | awk '{print $2}')
    echo "faulted mb_per_sec: committed=$committed_mbs fresh=$fresh_mbs"
    if ! awk -v f="$fresh_mbs" -v c="$committed_mbs" 'BEGIN { exit !(f >= 0.9 * c) }'; then
      echo "FAIL: faulted-decode throughput regressed >10% vs committed BENCH_fault.json" >&2
      exit 1
    fi
  else
    echo "no committed BENCH_fault.json; skipping throughput check"
  fi
}

# Net pass: the media-transport suite (label "net": packetizer, jitter
# buffer, FEC, channel faults and the seeded loss/FEC end-to-end sweep)
# under ASan+UBSan for the loss/resync paths and Release for the full
# sweep at speed, then bench_net, which hard-fails on 0-loss digest
# divergence, replay divergence, or >5% serve-tick transport overhead.
# The committed BENCH_net.json is soft-checked: packetize throughput
# must stay within 10%.
pass_net() {
  run_pass build-asan net-asan net -DAFFECTSYS_SANITIZE=ON
  run_pass build-release net-release net -DCMAKE_BUILD_TYPE=Release
  echo "=== [net] bench_net ==="
  local fresh="build-release/BENCH_net.json"
  ./build-release/bench/bench_net "$fresh"
  if [[ -f BENCH_net.json ]]; then
    local committed_mbs fresh_mbs
    committed_mbs=$(grep -o '"packetize_mb_per_sec": [0-9.]*' BENCH_net.json | awk '{print $2}')
    fresh_mbs=$(grep -o '"packetize_mb_per_sec": [0-9.]*' "$fresh" | awk '{print $2}')
    echo "packetize_mb_per_sec: committed=$committed_mbs fresh=$fresh_mbs"
    if ! awk -v f="$fresh_mbs" -v c="$committed_mbs" 'BEGIN { exit !(f >= 0.9 * c) }'; then
      echo "FAIL: packetize throughput regressed >10% vs committed BENCH_net.json" >&2
      exit 1
    fi
  else
    echo "no committed BENCH_net.json; skipping throughput check"
  fi
}

# Simulcast pass: the simulcast suite (label "simulcast": aligned-layer
# encoding, switch-only-at-IDR selector, policy table, serve
# replay/compat pins) under ASan+UBSan for the multi-lane transport
# paths and Release at speed, then bench_simulcast, which hard-fails on
# replay divergence, switch latency >= 1 GOP, or a wire-byte reduction
# below 20% vs deletion-only shedding.  The committed
# BENCH_simulcast.json is soft-checked: the wire reduction must stay
# within 10% of the committed figure.
pass_simulcast() {
  run_pass build-asan simulcast-asan simulcast -DAFFECTSYS_SANITIZE=ON
  run_pass build-release simulcast-release simulcast -DCMAKE_BUILD_TYPE=Release
  echo "=== [simulcast] bench_simulcast ==="
  local fresh="build-release/BENCH_simulcast.json"
  ./build-release/bench/bench_simulcast "$fresh"
  if [[ -f BENCH_simulcast.json ]]; then
    local committed_red fresh_red
    committed_red=$(grep -o '"wire_reduction_pct": [0-9.]*' BENCH_simulcast.json | awk '{print $2}')
    fresh_red=$(grep -o '"wire_reduction_pct": [0-9.]*' "$fresh" | awk '{print $2}')
    echo "wire_reduction_pct: committed=$committed_red fresh=$fresh_red"
    if ! awk -v f="$fresh_red" -v c="$committed_red" 'BEGIN { exit !(f >= 0.9 * c) }'; then
      echo "FAIL: wire reduction regressed >10% vs committed BENCH_simulcast.json" >&2
      exit 1
    fi
  else
    echo "no committed BENCH_simulcast.json; skipping reduction check"
  fi
}

# Conference pass: the conference suite (label "conf": active-speaker
# detector properties, role-row policy table, room replay/compat pins
# through the SessionManager, forced-IDR rate-control edges, and the
# 220-plan policy-table fuzz sweep) under ASan+UBSan for the fuzz
# runner's transport paths and TSan because the room stage runs between
# the parallel audio/media stages, then Release followed by
# bench_conference, which hard-fails on lossy-room replay divergence,
# K=1 divergence from a plain session, speaker-switch latency >= 1 GOP,
# or a wire-byte reduction below 30% vs all-speakers-top-layer.  The
# committed BENCH_conference.json is soft-checked: the wire reduction
# must stay within 10% of the committed figure.
pass_conference() {
  run_pass build-asan conference-asan conf -DAFFECTSYS_SANITIZE=ON
  run_pass build-tsan conference-tsan conf -DAFFECTSYS_SANITIZE=thread
  run_pass build-release conference-release conf -DCMAKE_BUILD_TYPE=Release
  echo "=== [conference] bench_conference ==="
  local fresh="build-release/BENCH_conference.json"
  ./build-release/bench/bench_conference "$fresh"
  if [[ -f BENCH_conference.json ]]; then
    local committed_red fresh_red
    committed_red=$(grep -o '"wire_reduction_pct": [0-9.]*' BENCH_conference.json | awk '{print $2}')
    fresh_red=$(grep -o '"wire_reduction_pct": [0-9.]*' "$fresh" | awk '{print $2}')
    echo "wire_reduction_pct: committed=$committed_red fresh=$fresh_red"
    if ! awk -v f="$fresh_red" -v c="$committed_red" 'BEGIN { exit !(f >= 0.9 * c) }'; then
      echo "FAIL: wire reduction regressed >10% vs committed BENCH_conference.json" >&2
      exit 1
    fi
  else
    echo "no committed BENCH_conference.json; skipping reduction check"
  fi
}

# Perfbench pass: the repository benchmark (perfbench/, BENCHMARK.json),
# built into .bench_build/perfbench the way perfbench/run.py builds it.
# perfbench_selftest runs the benchmark's own unit tests; then each
# workload BENCHMARK.json lists runs once, traced, for one second.  A
# traced run replays the untraced SessionManager run stage by stage
# through the public Session calls (pump_audio, drain_staged,
# tick_media) and checks that the replay reproduced it exactly — decode
# digests, label traces, room speaker traces — the one check that
# catches SessionManager::tick diverging from Session::pump_audio.  The
# pass fails unless every result line reads "correct": true and
# serve.label_wait_ticks_mean 0: every workload runs below the
# batcher's capacity, so any label that waits a tick means a flush
# deadline came back or the replay drifted from the server's flush
# rule.
pass_perfbench() {
  local dir=.bench_build/perfbench
  echo "=== [perfbench] configure + build ($dir) ==="
  cmake -S perfbench -B "$dir" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$dir" -j "$jobs" --target perfbench_serve perfbench_selftest
  echo "=== [perfbench] perfbench_selftest ==="
  "$dir/perfbench_selftest"
  local workloads wl result
  workloads=$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
    BENCHMARK.json)
  for wl in $workloads; do
    echo "=== [perfbench] $wl --seconds 1 --trace 1 ==="
    # run.py exits 1 on an incorrect run; its result line decides here.
    result=$(python3 perfbench/run.py --workload "$wl" --seed 1 --seconds 1 \
               --trace 1 | tail -n 1) || true
    if ! python3 -c 'import json, sys
r = json.loads(sys.argv[1])
wait = r["metrics"].get("serve.label_wait_ticks_mean", {}).get("value")
print("correct=%s attempted=%d failed=%d label_wait_ticks_mean=%s"
      % (r["correct"], r["attempted"], r["failed"], wait))
sys.exit(0 if r["correct"] is True and wait == 0 else 1)' "$result"; then
      echo "FAIL: perfbench $wl did not read \"correct\": true with" \
           "serve.label_wait_ticks_mean 0" >&2
      exit 1
    fi
  done
}

case "$mode" in
  default)   pass_default ;;
  threads)   pass_threads ;;
  nothreads) pass_nothreads ;;
  sanitize)  pass_sanitize ;;
  tsan)      pass_tsan ;;
  kernels)   pass_kernels ;;
  serve)     pass_serve ;;
  fault)     pass_fault ;;
  net)       pass_net ;;
  simulcast) pass_simulcast ;;
  conference) pass_conference ;;
  perfbench) pass_perfbench ;;
  all)
    pass_default
    pass_threads
    pass_nothreads
    pass_sanitize
    pass_tsan
    pass_kernels
    pass_serve
    pass_fault
    pass_net
    pass_simulcast
    pass_conference
    pass_perfbench
    ;;
  *) echo "usage: $0 [default|threads|nothreads|sanitize|tsan|kernels|serve|fault|net|simulcast|conference|perfbench|all]" >&2; exit 2 ;;
esac

echo "verification passed ($mode)"
