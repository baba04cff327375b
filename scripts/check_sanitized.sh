#!/usr/bin/env bash
# Build and run the test suite under sanitizers.
#
#   scripts/check_sanitized.sh [extra ctest args...]
#
# AddressSanitizer + UBSan over the full suite in a separate build tree
# (build-asan/) so the regular build stays untouched. The suite includes the
# operational drills (tests/workload/drills_test.cpp), which exercise the
# partition, reboot and shed paths. Any sanitizer report fails the run
# (halt_on_error).
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build-asan -G Ninja -DSDA_SANITIZE=address,undefined -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-asan

export ASAN_OPTIONS="detect_leaks=1:halt_on_error=1"
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
ctest --test-dir build-asan --output-on-failure "$@"
