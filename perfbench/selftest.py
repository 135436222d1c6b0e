#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

The file is not named test_*.py, so the package's pytest run does not pick
it up; it takes about a minute.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402  (pins BLAS threads before numpy loads)

switchlab = worker.import_switchlab()

from tracer import CONSTRUCTORS, Tracer  # noqa: E402
from workloads import WORKLOADS, GoldenSuite, HsRoundtrip  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY_SECONDS = "0.5"


def bench(workload, trace, seed=7):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", TINY_SECONDS, "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bindings():
    """Every name bound in a switchlab module, plus the traced __post_init__s."""
    out = {}
    for name, mod in sys.modules.items():
        if name == "switchlab" or name.startswith("switchlab."):
            out.update({(name, k): v for k, v in vars(mod).items()})
    pkg = sys.modules["switchlab"]
    for modname, classes in CONSTRUCTORS.items():
        for cls_name in classes:
            cls = getattr(getattr(pkg, modname), cls_name)
            out[(cls_name, "__post_init__")] = cls.__dict__["__post_init__"]
    return out


class TracerTest(unittest.TestCase):
    def test_uninstall_restores_every_binding(self):
        before = bindings()
        tracer = Tracer()
        tracer.install()
        try:
            during = bindings()
        finally:
            tracer.uninstall()
        after = bindings()
        # The wrappers reach the importing modules, not only the defining ones.
        for key in (("switchlab.linalg", "hermitian_eigen"), ("switchlab.process", "hermitian_eigen"),
                    ("switchlab.ops", "hermitian_eigen"), ("switchlab.order", "probability"),
                    ("switchlab.cli", "run_scenario"), ("Operation", "__post_init__")):
            self.assertIsNot(during[key], before[key], key)
        self.assertEqual(before.keys(), after.keys())
        changed = [k for k in before if after[k] is not before[k]]
        self.assertEqual(changed, [])


class GateTest(unittest.TestCase):
    def test_corrupted_golden_report_is_a_failure(self):
        workload = GoldenSuite(3, worker.OUT_DIR)
        self.assertTrue(workload.check(workload.run()))
        render = switchlab.cli.render_report
        switchlab.cli.render_report = lambda report: render(report).replace("true", "false", 1)
        try:
            latencies, failed, _ = worker.measure(workload, 0.0)
        finally:
            switchlab.cli.render_report = render
        self.assertEqual((len(latencies), failed), (0, 1))

    def test_failure_is_counted_and_the_run_continues(self):
        workload = HsRoundtrip(3, worker.OUT_DIR)
        reconstruct = switchlab.process.hs_reconstruct
        calls = []

        def corrupt_second(coeffs, d):
            calls.append(1)
            out = reconstruct(coeffs, d)
            return out + 1e-6 if len(calls) == 2 else out

        switchlab.process.hs_reconstruct = corrupt_second
        try:
            latencies, failed, _ = worker.measure(workload, 0.3)
        finally:
            switchlab.process.hs_reconstruct = reconstruct
        self.assertEqual(failed, 1)
        self.assertGreaterEqual(len(latencies), 2)


class RunTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.plain = {w: bench(w, 0) for w in WORKLOADS}
        cls.traced = {w: [bench(w, 1), bench(w, 1)] for w in WORKLOADS}

    def assert_metrics(self, result, spec):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in spec})

    def test_tiny_run_emits_every_metric(self):
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]), sorted(WORKLOADS))
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assert_metrics(self.plain[w], SPEC["end_to_end"])
                for value in self.plain[w]["metrics"].values():
                    self.assertGreater(value["value"], 0)
                self.assert_metrics(self.traced[w][0], SPEC["per_layer"])

    def test_same_seed_traced_runs_give_identical_counts(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                first, second = ({k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
                                 for r in self.traced[w])
                self.assertEqual(first, second)
                self.assertEqual(first["linalg.hermitian_eigen.calls_per_op"],
                                 {"golden-suite": 2067, "causal-bound": 39, "hs-roundtrip": 0}[w])


if __name__ == "__main__":
    unittest.main()
