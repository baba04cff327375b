#!/usr/bin/env python3
"""The benchmark's own tests, on the few-second smoke shape of every workload.

    python3 fabricbench/test_fabricbench.py

Each test runs fabricbench/run.py --smoke (which builds the binary first) and
checks that every metric BENCHMARK.json names is reported, that every
correctness check passes, and that the sim-time results repeat exactly for
a seed and change with it.
"""
import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Metrics that depend only on the seed, never on the machine.
DETERMINISTIC = ["events_per_pkt", "delivered_frac", "pkt_latency_us.p50",
                 "pkt_latency_us.p99", "first_pkt_us.p50", "onboard_ms.p50"]
# The traced arm's own bookkeeping between spans (timer and signal reads,
# the replay loop) is 100-150 ns a packet, 12-20% of a traced tick on a
# 4-vCPU Xeon VM; below this share the layers no longer explain the cost.
SUM_RATIO_FLOOR = 0.7


def smoke(workload, trace, seed=7):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    digest = next((l.split()[1] for l in lines if l.startswith("digest: ")), None)
    return proc.returncode, json.loads(lines[-1]) if lines else None, digest, proc.stderr


class SmokeTest(unittest.TestCase):
    def test_every_metric_reported_and_checks_pass(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            names = [m["name"] for m in SPEC[key]]
            units = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, result, _, err = smoke(workload, trace)
                    self.assertEqual(code, 0, err)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(list(result["metrics"]), names)
                    for name, metric in result["metrics"].items():
                        self.assertEqual(metric["unit"], units[name])

    def test_same_seed_same_sim_results(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, first, digest_a, _ = smoke(workload, 0, seed=3)
                _, second, digest_b, _ = smoke(workload, 0, seed=3)
                _, other, digest_c, _ = smoke(workload, 0, seed=4)
                self.assertRegex(digest_a, re.compile(r"^[0-9a-f]{16}$"))
                self.assertEqual(digest_a, digest_b)
                self.assertNotEqual(digest_a, digest_c)
                for name in DETERMINISTIC:
                    self.assertEqual(first["metrics"][name], second["metrics"][name], name)

    def test_workloads_exercise_their_layers(self):
        cached = smoke("cached_16e", 1)[1]["metrics"]
        miss = smoke("miss_failover_16e", 1)[1]["metrics"]
        roam = smoke("roam_16e", 1)[1]["metrics"]
        self.assertEqual(cached["lisp.map_cache.hit_frac"]["value"], 1.0)
        self.assertLess(miss["lisp.map_cache.hit_frac"]["value"], 1.0)
        self.assertGreaterEqual(miss["ha.failovers"]["value"], 1)
        self.assertGreater(miss["failover_ms"]["value"], 0)
        self.assertGreater(roam["handover_ms.p50"]["value"], 0)
        self.assertGreater(roam["dataplane.smr_per_roam"]["value"], 0)
        self.assertGreater(roam["dataplane.stale_fwd_per_roam"]["value"], 0)
        # Spans never overlap, so they cannot explain more than the traced
        # tick; the tracer's own bookkeeping between them must stay a
        # minority of it.
        for metrics in (cached, miss, roam):
            self.assertGreaterEqual(metrics["layers.sum_ratio"]["value"], SUM_RATIO_FLOOR)
            self.assertLessEqual(metrics["layers.sum_ratio"]["value"], 1.0)


if __name__ == "__main__":
    unittest.main()
