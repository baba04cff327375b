#!/usr/bin/env python3
"""Fabric benchmark: builds the fabricbench binary (and the libraries it drives)
from this checkout, runs one workload, checks its result, and prints the
result JSON as the last line of standard output.

    python3 fabricbench/run.py --workload cached_16e --seed 1 --seconds 10 --trace 0
    python3 fabricbench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 fabricbench/run.py --workload roam_16e --seed 1 --seconds 1 --trace 1 --smoke

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. --smoke runs the few-second 2-edge shape of the workload.
--workload all runs every workload in turn and ends with one combined JSON
line whose metric names are prefixed with the workload.

The build goes to $CARGO_TARGET_DIR/fabricbench (default .bench_build/),
relative to the checkout root. Exit status: 0 when every correctness check
passed; nonzero when a check failed (the result JSON is still printed), when
the build failed, or when the binary crashed or timed out (nothing printed).
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"fabricbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}", 2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "fabricbench"


def build():
    """Configures once and builds incrementally; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("library sources (src/) are missing from this checkout", 3)
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(out / ".lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            configure = ["cmake", "-S", str(HERE), "-B", str(out),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", str(out), "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (log: {log_path})", 3)
    return out / "fabricbench"


def check_result(line, names):
    """Parses the binary's last line and checks it against the contract."""
    try:
        result = json.loads(line)
    except ValueError:
        fail("fabricbench printed no result JSON", 4)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"result has keys {sorted(result)}", 4)
    if list(result["metrics"]) != names:
        missing = sorted(set(names) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(names))
        fail(f"metric names differ from BENCHMARK.json: missing {missing}, extra {extra}", 4)
    return result


def run_one(exe, workload, args, names):
    cmd = [str(exe), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: fabricbench timed out after {RUN_TIMEOUT_S} s", 5)
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"{workload}: fabricbench exited with status {proc.returncode}", 5)
    for line in lines[:-1]:
        print(line)
    return check_result(lines[-1], names), lines[-1], proc.returncode


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    exe = build()
    if args.workload != "all":
        _, line, status = run_one(exe, args.workload, args, names)
        print(line, flush=True)
        sys.exit(status)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in workloads:
        result, _, code = run_one(exe, workload, args, names)
        status = max(status, code)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined), flush=True)
    sys.exit(status)


if __name__ == "__main__":
    main()
