"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 -m pytest -q bench/test_bench.py      # from the repository root
    python3 bench/test_bench.py

It checks that every metric of BENCHMARK.json is printed with its unit,
that a corrupted expected output makes operations fail, that the query
stream depends on the seed alone, and that the benchmark refuses to run
without the library source.
"""

import copy
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=175)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricsPrinted(unittest.TestCase):
    def assert_metrics(self, result: dict, wanted: list[dict]) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in wanted])
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_end_to_end_metrics(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                proc = run_bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0", "--tiny")
                result = result_of(proc)
                self.assert_metrics(result, SPEC["end_to_end"])
                table = [line.split() for line in proc.stdout.splitlines()[:-1]]
                for m in SPEC["end_to_end"]:
                    self.assertIn(m["unit"], [row[-1] for row in table if row[0] == m["name"]], m["name"])
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])

    def test_per_layer_metrics_and_repeatable_counts(self):
        args = ("--workload", "sweeps-rank5", "--seed", "5", "--seconds", "1", "--trace", "1", "--tiny")
        first, second = result_of(run_bench(*args)), result_of(run_bench(*args))
        self.assert_metrics(first, SPEC["per_layer"])
        counts = [m["name"] for m in SPEC["per_layer"] if m["unit"].startswith("count")]
        self.assertEqual({k: first["metrics"][k] for k in counts},
                         {k: second["metrics"][k] for k in counts})
        self.assertGreater(first["metrics"]["tori.block_sums.calls"]["value"], 0)


class TracerWrapping(unittest.TestCase):
    def test_wraps_every_binding_and_restores(self):
        import sp2n
        from sp2n import harness, reps, weights

        original = weights.weyl_orbit
        tracer = Tracer()
        tracer.install()
        try:
            for mod in (sp2n, weights, reps, harness):
                self.assertIsNot(mod.weyl_orbit, original, mod.__name__)
                self.assertIs(mod.weyl_orbit.__wrapped__, original, mod.__name__)
            reps.weight_set(weights.Weight((1, 0)))
        finally:
            tracer.restore()
        for mod in (sp2n, weights, reps, harness):
            self.assertIs(mod.weyl_orbit, original, mod.__name__)
        calls, _ = tracer.self_times()
        self.assertEqual(calls[tracer.names.index("reps.weight_set")], 1)


class CorruptedExpected(unittest.TestCase):
    def run_tiny(self, workload, expected) -> workloads.Run:
        run = workloads.Run()
        workloads.WORKLOADS[workload](run, 7, True, expected)
        return run

    def test_verify_default(self):
        exp = workloads.load_expected("suites")
        self.assertEqual(self.run_tiny("verify-default", exp).failed, 0)
        bad = copy.deepcopy(exp)
        bad["reports"]["si"] = bad["reports"]["si"].replace('"cases": ', '"cases": 1')
        self.assertEqual(self.run_tiny("verify-default", bad).failed, 1)

    def test_sweeps_rank5(self):
        exp = workloads.load_expected("sweeps")
        self.assertEqual(self.run_tiny("sweeps-rank5", exp).failed, 0)
        bad = copy.deepcopy(exp)
        bad["ee3"]["00011"] = not bad["ee3"]["00011"]
        bad["element_vs_direct"]["3"]["cases"] += 2
        self.assertEqual(self.run_tiny("sweeps-rank5", bad).failed, 3)

    def test_queries(self):
        exp = workloads.load_expected("queries")
        self.assertEqual(self.run_tiny("queries-rank6-10", exp).failed, 0)
        bad = copy.deepcopy(exp)
        for q in bad["pool"]:
            q["stdout"] = q["stdout"].replace('"', "'")
        run = self.run_tiny("queries-rank6-10", bad)
        self.assertEqual(run.failed, run.attempted)


class QueryStream(unittest.TestCase):
    def test_same_seed_same_stream(self):
        self.assertEqual(workloads.query_stream(11, 200), workloads.query_stream(11, 200))
        self.assertNotEqual(workloads.query_stream(11, 200), workloads.query_stream(12, 200))

    def test_every_query_equally_often(self):
        stream = workloads.query_stream(11, 200)
        self.assertGreaterEqual(len(stream), workloads.MIN_QUERIES)
        self.assertEqual(set(Counter(stream).values()), {len(stream) // 200})


class MissingSource(unittest.TestCase):
    def test_refuses_without_library(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                             cwd=Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
