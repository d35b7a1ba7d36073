"""Tests of the benchmark itself, on its smoke sizes.

    python3 bench/selftest.py

They check the result schema against BENCHMARK.json, that the seed's
outputs score ok_ratio 1, that a corrupted reference hash lowers it, and
that traced counts repeat exactly.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import unittest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def smoke(workload, trace=False, reference=None, seed=1):
    return run.run(workload, seed, 0, trace, True, reference or run.load_reference())


class SmokeTest(unittest.TestCase):
    def check_schema(self, result, names):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]), set(names))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], names[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)
        self.assertGreaterEqual(result["attempted"], 1)

    def test_every_workload_untraced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                record, result = smoke(workload)
                self.check_schema(result, END_TO_END)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(result["metrics"]["ok_ratio"]["value"], 1.0)
                self.assertGreater(result["metrics"]["run_s"]["value"], 0)
                self.assertGreater(result["metrics"]["setup_s"]["value"], 0)
                for key in ("python", "cpu", "nproc", "commit", "seed", "samples"):
                    self.assertIn(key, record)

    def test_every_workload_traced_counts_repeat(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                _, first = smoke(workload, trace=True)
                _, second = smoke(workload, trace=True)
                self.check_schema(first, PER_LAYER)
                self.assertTrue(first["correct"])
                for name, unit in PER_LAYER.items():
                    if unit == "count":
                        self.assertEqual(
                            first["metrics"][name]["value"], second["metrics"][name]["value"], name
                        )

    def test_corrupted_reference_lowers_ok_ratio(self):
        for workload in ("table", "classpoly"):
            with self.subTest(workload=workload):
                ref = copy.deepcopy(run.load_reference())
                ref["smoke"][workload]["items"][1] = "0" * 64
                _, result = smoke(workload, reference=ref)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 1)
                self.assertLess(result["metrics"]["ok_ratio"]["value"], 1.0)

        # which pool triples arith runs depends on the seed: corrupt them all
        ref = copy.deepcopy(run.load_reference())
        pool = ref["smoke"]["arith"]["pool"]
        pool[:] = ["0" * 64] * len(pool)
        _, result = smoke("arith", reference=ref)
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(result["metrics"]["ok_ratio"]["value"], 0.0)

        ref = copy.deepcopy(run.load_reference())
        ref["smoke"]["oracle"]["checks"] += 1  # a check went missing
        _, result = smoke("oracle", reference=ref)
        self.assertLess(result["metrics"]["ok_ratio"]["value"], 1.0)

    def test_command_prints_result_last(self):
        proc = subprocess.run(
            [sys.executable, str(run.BENCH / "run.py"), "--workload", "classpoly",
             "--seed", "7", "--seconds", "1", "--trace", "0", "--smoke"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        lines = proc.stdout.strip().splitlines()
        self.assertIn("record", json.loads(lines[-2]))
        self.check_schema(json.loads(lines[-1]), END_TO_END)


if __name__ == "__main__":
    unittest.main()
