#!/usr/bin/env python3
"""Tests of the benchmark itself, in short mode (scale 256, short streams).

    python3 perfbench/test_perfbench.py

Builds the driver like run.py does. The traced run's composed trials are
checked bit for bit against ExperimentRunner::run_cells on every Fig. 3 cell
of both machines; a mismatch fails the run's correctness, which these tests
assert on.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import compare  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, seed=3, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--short"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


def digest(stdout):
    for line in stdout.splitlines():
        if line.startswith("digest of simulated counters:"):
            return line.split(":")[1].strip()
    return None


class ShortMode(unittest.TestCase):
    def check_metrics(self, res, specs):
        self.assertEqual(res.returncode, 0, res.stderr)
        out = json.loads(res.stdout.strip().splitlines()[-1])
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(out["correct"], res.stdout)
        self.assertEqual(out["failed"], 0)
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertEqual(set(out["metrics"]), {m["name"] for m in specs})
        for m in specs:
            self.assertEqual(out["metrics"][m["name"]]["unit"], m["unit"])
            # The report names each metric with its unit and direction.
            self.assertRegex(res.stdout, r"\s%s\s.*\(%s is better\)"
                             % (m["name"].replace(".", r"\."), m["better"]))
        return out["metrics"]

    def test_every_workload_timed_and_traced(self):
        for w in [x["name"] for x in SPEC["workloads"]]:
            with self.subTest(workload=w):
                timed = run(w, 0)
                metrics = self.check_metrics(timed, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(metrics[m["name"]]["value"], 0, m)
                traced = run(w, 1)
                layers = self.check_metrics(traced, SPEC["per_layer"])
                self.assertGreater(layers["trace.overhead"]["value"], 0)
                self.assertGreater(layers["sim.refs"]["value"], 0)
                # Timed and traced processes simulated the same counters.
                self.assertIsNotNone(digest(timed.stdout))
                self.assertEqual(digest(timed.stdout), digest(traced.stdout))

    def test_sampled_reports_cpi_error(self):
        res = run("figs_sampled", 0)
        self.assertIn("cpi_err_pct", res.stdout)

    def test_fails_without_the_simulator_sources(self):
        # A bare copy of the benchmark, made inside the build tree so the
        # test writes nothing outside the checkout.
        with tempfile.TemporaryDirectory(dir=build_root()) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            res = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "replay",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=170)
            self.assertNotEqual(res.returncode, 0)
            self.assertNotIn('"correct"', res.stdout)


def build_root():
    path = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.makedirs(path, exist_ok=True)
    return path


class Verdicts(unittest.TestCase):
    def test_rules(self):
        parent = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
        faster = [v * 0.8 for v in parent]
        slower = [v * 1.2 for v in parent]
        same = list(reversed(parent))
        self.assertEqual(compare.verdict(parent, faster, 0.1, True, 10, 10),
                         "improved")
        self.assertEqual(compare.verdict(parent, slower, 0.1, True, 0, 10),
                         "worse")
        self.assertEqual(compare.verdict(parent, same, 0.1, True, 4, 10),
                         "within bound")
        noisy = [5.0, 15.0, 7.0, 13.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
        self.assertEqual(compare.verdict(noisy, noisy, 0.1, True, 0, 10),
                         "unresolved")
        # A noisy parent does not hide a clear regression.
        self.assertEqual(compare.verdict(noisy, [v * 1.5 for v in noisy],
                                         0.1, True, 0, 10), "worse")
        # Higher-is-better metrics flip the direction.
        self.assertEqual(compare.verdict(parent, slower, 0.1, False, 10, 10),
                         "improved")

    def test_failures_count_against_the_change(self):
        parent = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
        # The change failed 4 of 10 runs and won all 6 remaining pairs.
        faster = [v * 0.8 for v in parent[:6]]
        self.assertEqual(compare.verdict(parent, faster, 0.1, True, 6, 10,
                                         failed_p=0, failed_c=4), "worse")
        # Six wins of ten pairs run are too few to claim a gain.
        self.assertEqual(compare.verdict(parent[:6], faster, 0.1, True, 6, 10,
                                         failed_p=4, failed_c=4),
                         "within bound")

    def test_report_counts_every_pair(self):
        spec = compare.load_spec()
        w = spec["workloads"][0]["name"]

        def result(value, good):
            return {"correct": good, "attempted": 1, "failed": 0 if good else 1,
                    "metrics": {m["name"]: {"value": value, "unit": m["unit"]}
                                for m in spec["end_to_end"]}}

        rows = []
        for i in range(10):
            rows.append({"side": "parent", "workload": w, "pair": i,
                         "seed": i, "trace": 0, "result": result(10.0, True)})
            rows.append({"side": "change", "workload": w, "pair": i,
                         "seed": i, "trace": 0,
                         "result": result(5.0, i >= 4)})
        with tempfile.NamedTemporaryFile("w", suffix=".jsonl",
                                         dir=build_root()) as f:
            f.write("".join(json.dumps(r) + "\n" for r in rows))
            f.flush()
            res = subprocess.run(
                [sys.executable, os.path.join(HERE, "compare.py"), "report",
                 f.name], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=60)
        self.assertEqual(res.returncode, 0, res.stderr)
        self.assertIn("parent 0 of 10, change 4 of 10", res.stdout)
        lines = [l for l in res.stdout.splitlines()
                 if l.startswith(w + " ") and "/10 " in l]
        self.assertEqual(len(lines), len(spec["end_to_end"]), res.stdout)
        for line in lines:
            self.assertTrue(line.endswith("worse"), line)


if __name__ == "__main__":
    unittest.main()
