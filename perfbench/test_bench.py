#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/test_bench.py

* The same seed gives a byte-identical generated stream; another seed
  gives a different one.
* A tiny-scale smoke run of every workload prints every metric named in
  BENCHMARK.json with its unit, in both modes, and no reply fails.
* In a directory holding only BENCHMARK.json and perfbench/, the
  benchmark exits non-zero without printing a result.
* The benchmark crate's unit tests pass.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.getcwd()
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

TARGET = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
# cached-pipelined and session-churn are not in BENCHMARK.json (see
# README.md) but stay runnable.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["cached-pipelined", "session-churn"]


def perfbench(*args):
    exe = os.path.join(TARGET, "release", "perfbench")
    return subprocess.run([exe, *args], capture_output=True, text=True, check=True).stdout


class Bench(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build(TARGET)

    def test_crate_unit_tests(self):
        env = dict(os.environ, CARGO_TARGET_DIR=TARGET)
        cmd = ["cargo", "test", "--release", "--quiet", "--manifest-path", "perfbench/Cargo.toml"]
        self.assertEqual(subprocess.run(cmd, env=env).returncode, 0)

    def test_same_seed_same_stream(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                args = ["stream", "--workload", w, "--count", "300"]
                a = perfbench(*args, "--seed", "7")
                b = perfbench(*args, "--seed", "7")
                c = perfbench(*args, "--seed", "8")
                self.assertGreater(len(a), 0)
                self.assertEqual(a, b)
                self.assertNotEqual(a, c)

    def test_smoke_every_workload_prints_every_metric(self):
        for w in WORKLOADS:
            for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    out = subprocess.run(
                        [sys.executable, "perfbench/run.py", "--workload", w, "--seed", "1",
                         "--seconds", "1", "--trace", trace, "--scale", "tiny"],
                        capture_output=True, text=True, env=dict(os.environ, CARGO_TARGET_DIR=TARGET),
                    )
                    self.assertEqual(out.returncode, 0, out.stderr[-2000:])
                    lines = out.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    provenance = json.loads(lines[-2])["provenance"]
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(provenance["failed_frac"], 0.0)
                    want = {m["name"]: m["unit"] for m in SPEC[section]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, v in result["metrics"].items():
                        self.assertIsInstance(v["value"], (int, float), name)
                        self.assertTrue(math.isfinite(v["value"]), name)
                        if section == "end_to_end":
                            self.assertGreater(v["value"], 0, name)

    def test_bare_directory_fails_without_result(self):
        bare = os.path.join(ROOT, ".bench_work", "bare-check")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
                env=dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build")),
            )
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"metrics"', out.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
