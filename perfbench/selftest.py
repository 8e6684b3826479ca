"""The benchmark's own tests.

Run from the root of a checkout (about a minute)::

    python3 perfbench/selftest.py

They check that the generated inputs are deterministic for a seed, that
the recorded expected verdicts agree with the litmus gallery's verified
classification, and that a short run of every workload prints every
metric ``BENCHMARK.json`` names, with its unit, and passes its checks.
"""

from __future__ import annotations

import json
import pathlib
import random
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import explore  # noqa: E402
import kv  # noqa: E402
import search  # noqa: E402
from run import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class Determinism(unittest.TestCase):
    def test_corpus_is_the_recorded_one(self) -> None:
        first = search.corpus_digest(search.build_corpus())
        second = search.corpus_digest(search.build_corpus())
        expected = json.loads(search.EXPECTED.read_text())
        self.assertEqual(first, second)
        self.assertEqual(first, expected["corpus_digest"])

    def test_decision_order_follows_the_seed(self) -> None:
        corpus, _, _ = search.timed_corpus()
        orders = [search.decision_order(corpus, seed) for seed in (5, 5, 6)]
        self.assertEqual(orders[0], orders[1])
        self.assertNotEqual(orders[0], orders[2])

    def test_kv_requests_follow_the_seed(self) -> None:
        for shape in kv.SHAPES.values():
            streams = [
                [kv.next_request(rng, shape, i) for i in range(200)]
                for rng in (random.Random(9), random.Random(9))
            ]
            self.assertEqual(streams[0], streams[1])
            puts = sum(r["cmd"] == "put" for r in streams[0])
            self.assertAlmostEqual(puts / 200, shape.write_ratio, delta=0.1)

    def test_simulation_follows_the_seed(self) -> None:
        spec, adt, _ = explore._build()
        for cell in explore.CELLS:
            runs = [
                explore._cell(cell, seed, spec, adt, False, fast_ops=40)
                for seed in (4, 4, 5)
            ]
            # the counts include a digest of every recorded operation
            self.assertEqual(runs[0]["counts"], runs[1]["counts"])
            self.assertNotEqual(runs[0]["counts"], runs[2]["counts"])


class ExpectedVerdicts(unittest.TestCase):
    def test_gallery_entries_match_verified_classification(self) -> None:
        verdicts = json.loads(search.EXPECTED.read_text())["verdicts"]
        gallery = search.litmus_expected()
        self.assertEqual(len(gallery), 18)
        self.assertEqual(search.gallery_disagreements(verdicts), [])
        for key, expected in gallery.items():
            for mode, verdict in expected.items():
                self.assertIs(verdicts[key][mode], verdict, (key, mode))

    def test_every_corpus_history_has_a_verdict(self) -> None:
        verdicts = json.loads(search.EXPECTED.read_text())["verdicts"]
        keys = [key for key, _, _ in search.build_corpus()]
        self.assertEqual(sorted(keys), sorted(verdicts))


class ShortRuns(unittest.TestCase):
    """Every workload, short, traced: the untraced twin's table and
    result line, then the traced one's."""

    def run_short(self, workload: str) -> str:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "1", "--trace", "1", "--short"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=300,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return proc.stdout

    def test_every_metric_is_printed(self) -> None:
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                out = self.run_short(workload).strip().splitlines()
                results = [json.loads(line) for line in out if line.startswith("{")]
                self.assertEqual(len(results), 2)
                untraced, traced = results
                self.assertEqual(json.loads(out[-1]), traced)
                for result in results:
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                tables = "\n".join(line for line in out if not line.startswith("{"))
                for metric in SPEC["end_to_end"]:
                    got = untraced["metrics"][metric["name"]]
                    self.assertEqual(got["unit"], metric["unit"])
                    self.assertGreater(got["value"], 0)
                    self.assertRegex(
                        tables, rf"\n  {metric['name']} +\S+ {metric['unit']} +\d+  \("
                    )
                self.assertEqual(
                    sorted(traced["metrics"]), sorted(m["name"] for m in SPEC["per_layer"])
                )
                for metric in SPEC["per_layer"]:
                    self.assertEqual(traced["metrics"][metric["name"]]["unit"], metric["unit"])
                    self.assertRegex(
                        tables, rf"\n    {metric['name']} +\S+ {metric['unit']} +\d+"
                    )
                for name in WORKLOAD_EXTRAS[workload]:
                    self.assertRegex(tables, rf"\n  {name} +\S+ \S+ +\d+")

    def test_refuses_without_the_program(self) -> None:
        # a directory holding only BENCHMARK.json and the benchmark
        with tempfile.TemporaryDirectory(dir=ROOT) as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(
                HERE, pathlib.Path(bare, HERE.name),
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            for workload in WORKLOADS:
                proc = subprocess.run(
                    [sys.executable, f"{HERE.name}/run.py", "--workload", workload,
                     "--seed", "1", "--seconds", "1", "--trace", "0"],
                    cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                    text=True, timeout=60,
                )
                self.assertNotEqual(proc.returncode, 0)
                self.assertEqual(proc.stdout, "")


#: the workload-specific metrics printed beside the gated five
WORKLOAD_EXTRAS = {
    "kv-write-sat": ("visibility_lag_p50_ms", "visibility_lag_p99_ms", "failed_share"),
    "kv-read-open": (
        "visibility_lag_p50_ms",
        "visibility_lag_p99_ms",
        "failed_share",
        "offered_ops_per_s",
        "load.late_p99_ms",
    ),
    "check-search": ("check_inconclusive_share",),
    "explore-scale": ("sim_ops_per_s", "monitor_ccv_ops_per_s", "monitor_cc_ops_per_s"),
}


if __name__ == "__main__":
    unittest.main()
