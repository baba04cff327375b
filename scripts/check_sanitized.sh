#!/usr/bin/env bash
# Build and run the test suite under sanitizers.
#
#   scripts/check_sanitized.sh [--drill] [extra ctest args...]
#
# AddressSanitizer + UBSan over the full suite in a separate build tree
# (build-asan/) so the regular build stays untouched. Any sanitizer report
# fails the run (halt_on_error).
#
# With --drill, additionally runs the chaos bench's failover/election/
# quorum/catch-up/stampede drill suite under the sanitizers — the drills
# exercise partition, reboot, and shed paths the unit tests cannot reach
# at scale.
set -euo pipefail
cd "$(dirname "$0")/.."

RUN_DRILL=0
if [[ "${1:-}" == "--drill" ]]; then
  RUN_DRILL=1
  shift
fi

cmake -B build-asan -G Ninja -DSDA_SANITIZE=address,undefined -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-asan

export ASAN_OPTIONS="detect_leaks=1:halt_on_error=1"
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
ctest --test-dir build-asan --output-on-failure "$@"

if [[ "$RUN_DRILL" == 1 ]]; then
  echo "check_sanitized: running drill suite under sanitizers"
  build-asan/bench/bench_chaos_convergence --drill >/dev/null
  echo "check_sanitized: drill suite clean"
fi
