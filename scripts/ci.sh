#!/usr/bin/env bash
# CI entry point: tier-1 tests, the fault-injection torture suite, the
# perfbench virtual-digest guard, and an ASan+UBSan build of the same.
# Usage: scripts/ci.sh [build-dir-prefix]
set -euo pipefail

cd "$(dirname "$0")/.."
prefix="${1:-build-ci}"
jobs="$(nproc 2>/dev/null || echo 4)"

generator=()
if command -v ninja > /dev/null 2>&1; then
  generator=(-G Ninja)
fi

echo "==> tier-1 build + tests (${prefix})"
cmake -B "${prefix}" -S . "${generator[@]}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DODCM_WERROR=ON
cmake --build "${prefix}" -j "${jobs}"
# The full run covers every labelled suite (perf-smoke, transport,
# registration, torture, bulkproto, schedule): the tests are deterministic,
# so running a label again in the same build repeats the same result.
ctest --test-dir "${prefix}" --output-on-failure -j "${jobs}"

echo "==> test label guard"
# A suite registered with several labels must carry every one of them, or
# a label-filtered run (ctest -L) silently undercounts. Probe one
# multi-label suite per label: shmem_rma_paths_test under its third label,
# shmem_lock_test (Lock.*) under its second.
labelled="$(ctest --test-dir "${prefix}" -N -L bulkproto)"
if ! grep -q 'RmaPaths\.GoldenEventStreamsAcrossTheModeMatrix$' \
    <<< "${labelled}"; then
  echo "label guard: ctest -L bulkproto misses" \
    "RmaPaths.GoldenEventStreamsAcrossTheModeMatrix" >&2
  exit 1
fi
labelled="$(ctest --test-dir "${prefix}" -N -L schedule)"
if ! grep -q ': Lock\.' <<< "${labelled}"; then
  echo "label guard: ctest -L schedule misses the shmem_lock_test cases" >&2
  exit 1
fi

echo "==> torture sweep"
"${prefix}/bench/check_sweep" --seeds 50 \
  --json "${prefix}/bench-artifacts/CHECK_sweep.json"

echo "==> large-message protocol tiers sweep"
# The credit/fragment-conservation torture cases over all tiers.
"${prefix}/bench/check_sweep" --seeds 25 --bulkproto \
  --json "${prefix}/bench-artifacts/CHECK_bulkproto_sweep.json"
"${prefix}/bench/check_sweep" --seeds 3 --schedule-seeds 4 --bulkproto \
  --schedule-jitter 200 \
  --json "${prefix}/bench-artifacts/CHECK_bulkproto_schedule_sweep.json"

echo "==> schedule exploration sweep"
# Seeded tie-break permutation of same-timestamp events: every recipe x
# mode base case re-run under perturbed schedules, plus a bounded-jitter
# pass. On failure the JSON artifact carries the failing schedule seed and
# the one-line minimized replay command next to the MICRO/BENCH artifacts.
"${prefix}/bench/check_sweep" --seeds 5 --schedule-seeds 8 \
  --json "${prefix}/bench-artifacts/CHECK_schedule_sweep.json"
"${prefix}/bench/check_sweep" --seeds 3 --schedule-seeds 4 \
  --schedule-jitter 300 \
  --json "${prefix}/bench-artifacts/CHECK_schedule_jitter_sweep.json"

echo "==> host benchmark digest guard (perfbench)"
# Host-side optimisations must leave virtual results alone: each workload's
# virtual digest has to match perfbench/reference.json ("correct": true).
# The --trace 1 pass attaches telemetry to every job, so a change on the
# protocol-observer path that perturbs virtual time fails here too.
# The --trace 0 pass also caps each workload's peak RSS. Simulated memory
# is committed where it is touched (DESIGN.md §5.22); committing every heap
# byte up front measures 294 MB on startup and 598 MB on hybrid, so the
# caps sit well below that and well above today's values.
declare -A rss_ceiling_mb=([startup]=200 [collective]=120 [hybrid]=300)
for trace in 0 1; do
  for workload in startup collective hybrid; do
    result="$(CARGO_TARGET_DIR="${prefix}/perfbench-target" python3 \
      perfbench/run.py --workload "${workload}" --seed 0 --seconds 1 \
      --trace "${trace}" | tail -n 1)"
    echo "${workload} (trace ${trace}): ${result}"
    if ! python3 -c 'import json, sys
sys.exit(0 if json.loads(sys.argv[1]).get("correct") is True else 1)' \
        "${result}"; then
      echo "perfbench ${workload} --trace ${trace}: digest does not match" \
        "the reference" >&2
      exit 1
    fi
    if [[ "${trace}" == 0 ]] && ! python3 -c 'import json, sys
rss = json.loads(sys.argv[1])["metrics"]["peak_rss_mb"]["value"]
sys.exit(0 if rss <= float(sys.argv[2]) else 1)' \
        "${result}" "${rss_ceiling_mb[${workload}]}"; then
      echo "perfbench ${workload}: peak_rss_mb above its" \
        "${rss_ceiling_mb[${workload}]} MB ceiling" >&2
      exit 1
    fi
  done
done

echo "==> archiving bench artifacts"
# Includes BENCH_*.json (schema-checked, deterministic), CHECK_sweep.json,
# the CHECK_schedule_*.json exploration tallies (failing schedule seeds and
# replay commands live there), and the MICRO_*.json hot-path microbench
# output from the perf-smoke label.
tar -czf "${prefix}/bench-artifacts.tar.gz" -C "${prefix}" bench-artifacts
ls -l "${prefix}/bench-artifacts.tar.gz"

echo "==> sanitizer build + tests (${prefix}-asan)"
cmake -B "${prefix}-asan" -S . "${generator[@]}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DENABLE_SANITIZERS=ON -DODCM_WERROR=ON
cmake --build "${prefix}-asan" -j "${jobs}"
# Leak detection stays off: deadlock- and exception-path tests abandon
# suspended coroutine frames by design (the engine documents this), which
# LSan reports as leaks. ASan OOB/use-after-free and UBSan stay active.
# As above, the full run already covers every labelled suite.
ASAN_OPTIONS=detect_leaks=0 \
  ctest --test-dir "${prefix}-asan" --output-on-failure -j "${jobs}"
ASAN_OPTIONS=detect_leaks=0 "${prefix}-asan/bench/check_sweep" --seeds 10
ASAN_OPTIONS=detect_leaks=0 "${prefix}-asan/bench/check_sweep" --seeds 2 \
  --schedule-seeds 4
ASAN_OPTIONS=detect_leaks=0 "${prefix}-asan/bench/check_sweep" --seeds 5 \
  --bulkproto
# Jittered schedules under ASan: latency jitter can fire a QP request event
# after its operation has completed and its coroutine frame was recycled,
# so event captures that borrow frame locals show up here as use-after-free
# (pooled frames are poisoned, see sim::detail::FramePool).
ASAN_OPTIONS=detect_leaks=0 "${prefix}-asan/bench/check_sweep" --seeds 2 \
  --schedule-seeds 4 --schedule-jitter 300
ASAN_OPTIONS=detect_leaks=0 "${prefix}-asan/bench/check_sweep" --seeds 2 \
  --schedule-seeds 4 --bulkproto --schedule-jitter 200

echo "==> ci.sh: all green"
