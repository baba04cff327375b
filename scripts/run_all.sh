#!/usr/bin/env bash
# Build, test, and regenerate every paper table/figure.
#
#   scripts/run_all.sh [--release] [results-dir]
#
# With a results-dir argument, benches additionally dump raw CSV series
# there (SDA_RESULTS_DIR). --release builds -O3/NDEBUG into build-release/
# (the default tree is RelWithDebInfo) — use it for timing-sensitive
# figures.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build
CMAKE_ARGS=()
if [[ "${1:-}" == "--release" ]]; then
  BUILD_DIR=build-release
  CMAKE_ARGS+=(-DCMAKE_BUILD_TYPE=Release)
  shift
fi

cmake -B "$BUILD_DIR" "${CMAKE_ARGS[@]}"
cmake --build "$BUILD_DIR"
ctest --test-dir "$BUILD_DIR" --output-on-failure

if [[ $# -ge 1 ]]; then
  mkdir -p "$1"
  export SDA_RESULTS_DIR="$(cd "$1" && pwd)"
  echo "CSV results -> $SDA_RESULTS_DIR"
fi

for b in "$BUILD_DIR"/bench/bench_*; do
  echo
  echo "######## $b"
  "$b"
done
