#!/usr/bin/env bash
# Sanitizer sweep over the concurrency- and fault-sensitive test suites.
#
# Two build trees (ASan+UBSan and TSan cannot share one binary):
#   build-asan : -DRAPIDS_SANITIZE=address,undefined
#   build-tsan : -DRAPIDS_SANITIZE=thread
#
# Each runs the parallel executor tests, the pipeline suites (prepare's error
# paths, and prepares/restores forked concurrently on the pool), and the
# chaos suites (ctest label `chaos`), where the data races worth finding
# live: concurrent prepare/restore/scrub under fault injection and
# availability flips from failure drills.
#
# Both trees build with -DRAPIDS_WERROR=ON, so a new compiler warning fails
# the sweep.
#
# Usage: scripts/sanitize.sh [asan|tsan|all]   (default: all)

set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-all}"
JOBS="$(nproc 2>/dev/null || echo 4)"
# The suites where shared mutable state is exercised; everything else is
# covered by the plain tier-1 run. kernel_test and mgard_test ride along for
# the vectorized refactor kernels: ASan/UBSan over the intrinsics paths and
# TSan over the panel-parallel sweeps. gather_test and solver_test cover the
# ACO planner's reused buffers. integration_test and robustness_test drive
# repair, evacuation, fragments damaged at rest and reopened directory
# workspaces: the paths where a fragment moved into a system, or a decoded
# level shared with the restore cache, could be read after its owner let go.
# ec_test and data_test run the Reed-Solomon stripe, CRC and data-row loops
# and the field generators, each a bulk loop on the pool.
SUITES=(parallel_test pipeline_test pipeline_batch_test progressive_test storage_test
        fault_injector_test chaos_test kernel_test mgard_test streaming_test
        control_test control_chaos_test service_test service_chaos_test
        gather_test solver_test integration_test robustness_test ec_test
        data_test)

run_tree() {
  local dir="$1" sanitize="$2"
  echo "=== ${dir}: -DRAPIDS_SANITIZE=${sanitize} ==="
  cmake -B "${dir}" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DRAPIDS_WERROR=ON \
    -DRAPIDS_SANITIZE="${sanitize}" >/dev/null
  cmake --build "${dir}" -j "${JOBS}" --target "${SUITES[@]}"
  local t
  for t in "${SUITES[@]}"; do
    echo "--- ${dir}/tests/${t}"
    "${dir}/tests/${t}"
  done
  # Whole-transform round trip with the dispatcher pinned to the scalar
  # reference tier — proves the env-var escape hatch still covers the full
  # refactor path after the vectorized kernels landed.
  echo "--- ${dir}/tests/kernel_test (RAPIDS_FORCE_SCALAR=1)"
  RAPIDS_FORCE_SCALAR=1 "${dir}/tests/kernel_test" \
    --gtest_filter='Transform.*:Planes.*:Levels.*:Codec.*'
  # The plane decoder calls the dispatched dequantize once per 64-coefficient
  # block; pin the scalar tier under it too.
  echo "--- ${dir}/tests/progressive_test (RAPIDS_FORCE_SCALAR=1)"
  RAPIDS_FORCE_SCALAR=1 "${dir}/tests/progressive_test" \
    --gtest_filter='ProgressiveDecode.*'
}

case "${MODE}" in
  asan) run_tree build-asan "address,undefined" ;;
  tsan) TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
          run_tree build-tsan "thread" ;;
  all)
    run_tree build-asan "address,undefined"
    TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" run_tree build-tsan "thread"
    ;;
  *) echo "usage: $0 [asan|tsan|all]" >&2; exit 2 ;;
esac

echo "sanitize: all requested trees passed"
