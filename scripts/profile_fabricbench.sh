#!/usr/bin/env bash
# Sampling profile of a fabricbench run, with no -pg build and no perf.
#
#   scripts/profile_fabricbench.sh record BINARY OUT.prof [fabricbench args...]
#   scripts/profile_fabricbench.sh report OUT.prof [--top N]
#   scripts/profile_fabricbench.sh diff BEFORE.prof AFTER.prof [--top N]
#
# `record` compiles scripts/sigprof_sampler.c into a shared object, runs
# BINARY under LD_PRELOAD with it (SIGPROF from a POSIX timer every
# 100 us of wall time) and writes the sampled PCs, relative to the
# executable's load base, to OUT.prof when the run exits. `report` symbolizes one profile with
# addr2line -i, by function, by inlined function and by line; `diff`
# compares two. BINARY is any build with debug info, such as the
# RelWithDebInfo tree fabricbench/run.py builds:
#
#   python3 fabricbench/run.py --workload roam_16e --seconds 1 --trace 0
#   scripts/profile_fabricbench.sh record .bench_build/fabricbench/fabricbench \
#       roam.prof --workload roam_16e --seed 1 --seconds 20 --trace 0
#   scripts/profile_fabricbench.sh report roam.prof --top 40
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"

usage() {
  sed -n '2,6p' "$0" >&2
  exit 2
}

[[ $# -ge 2 ]] || usage
command="$1"
shift
case "$command" in
  record)
    [[ $# -ge 2 ]] || usage
    binary="$(realpath "$1")"
    out="$(realpath "$2")"
    shift 2
    work="$(mktemp -d)"
    trap 'rm -rf "$work"' EXIT
    cc -O2 -fPIC -shared -o "$work/sigprof_sampler.so" "$here/sigprof_sampler.c" -lrt
    SDA_PROFILE_OUT="$out" LD_PRELOAD="$work/sigprof_sampler.so" "$binary" "$@"
    echo "profile: $out ($(sed -n 's/^# samples //p' "$out") samples)" >&2
    ;;
  report | diff)
    exec python3 "$here/symbolize_profile.py" "$command" "$@"
    ;;
  *)
    usage
    ;;
esac
