"""Self-test of the benchmark on shortened workloads.

    python3 perfbench/selftest.py        # from the repository root

For a shortened shape of every workload it checks that the run passes the
correctness gate, that the metrics it emits are exactly those declared in
BENCHMARK.json, with their units, in both modes, and that the per-layer
counts repeat exactly for one seed.  On the shipped, unseeded x0 it checks
that the traced counters reproduce the recorded baseline of the current
integrator: canonical simulate makes 302,531 ``gradient_vec`` calls over
21,539 nominal steps, and equivalent_control simulate 57,134
``grad_jacobian`` calls.  A change to the integrator that moves these
counts must update them here, with the reason.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
import unittest
from pathlib import Path

import run

SHORT = run.Shape(t_end=0.5, sampling_count=256, ensemble_states=4, setup_repeats=2)
SEED = 7
EXACT_UNITS = {"count", "bytes", "rows/step", "calls/step", "model_time"}


def declared(section: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


class WorkloadShapes(unittest.TestCase):
    def test_end_to_end_metrics(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                res = run.run_workload(name, SEED, 0.0, trace=False, shape=SHORT)
                self.assertEqual(res["reasons"], [])
                self.assertTrue(res["correct"])
                self.assertEqual(units(res), declared("end_to_end"))
                for metric, m in res["metrics"].items():
                    self.assertTrue(math.isfinite(m["value"]) and m["value"] > 0, metric)

    def test_per_layer_counts_repeat(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                first, second = (run.run_workload(name, SEED, 0.0, trace=True, shape=SHORT)
                                 for _ in range(2))
                for res in (first, second):
                    self.assertEqual(res["reasons"], [])
                    self.assertEqual(units(res), declared("per_layer"))
                exact = [k for k, u in units(first).items() if u in EXACT_UNITS]
                self.assertEqual({k: first["metrics"][k]["value"] for k in exact},
                                 {k: second["metrics"][k]["value"] for k in exact})
                self.assertGreater(first["metrics"]["dynamics.nominal_steps"]["value"], 0)


class ShippedBaseline(unittest.TestCase):
    def traced_simulate(self, config: str) -> tuple[dict, list[dict]]:
        run.WORK.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(dir=run.WORK))
        self.addCleanup(shutil.rmtree, work, True)
        op = run.Op("simulate", "cli",
                    ["simulate", "--config", str(run.CONFIGS / config), "--out", str(work)],
                    work, ("summary.txt",), lambda out: None)
        spans = work / "spans.npz"
        proc = run.Runner().spawn(run.command(op, spans))
        self.assertIsNone(run.gate(op, proc)[0])
        totals, trajectories, _ = run.span_totals([spans])
        return totals, trajectories

    def test_canonical_counters(self):
        totals, trajectories = self.traced_simulate("canonical.cfg")
        self.assertEqual(totals["hierarchy.gradient_vec.calls"], 302_531)
        self.assertEqual(sum(t["steps"] for t in trajectories), 21_539)

    def test_equivalent_control_counters(self):
        totals, _ = self.traced_simulate("equivalent_control.cfg")
        self.assertEqual(totals["hierarchy.grad_jacobian.calls"], 57_134)


if __name__ == "__main__":
    unittest.main()
