#!/usr/bin/env python3
"""Self-tests of the repository benchmark (perfbench/run.py).

Usage:
    python3 perfbench/selftest.py

Shows that neither correctness check passes vacuously and that every
workload runs: a perturbed reference is reported as drift, a forced
check failure counts in cells_failed_frac, every printed metric name
matches the name grammar and appears in BENCHMARK.json with its unit,
and a reduced-scale smoke run (untraced and traced) covers each
workload. Builds the engine the same way run.py does. Standard
library only; takes about three minutes.
"""

import copy
import json
import re
import subprocess
import sys
import unittest

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# Reduced cell-set scales: same cells and code paths, far fewer events.
SMOKE_SCALE = {"headline": 1, "mesh-8x8": 1, "apps-racecheck": 5,
               "litmus-oracles": 0}


def smoke(workload, trace, extra=()):
    args = ["--max-reps=1"] + list(extra)
    if SMOKE_SCALE[workload]:
        args.append("--scale=%d" % SMOKE_SCALE[workload])
    return run.run_engine(ENGINE, workload, 0, 0, trace, args)


def own_reference(result):
    return {c["name"]: copy.deepcopy(c["digest"]) for c in result["cells"]}


class Spec(unittest.TestCase):
    def test_names_and_units(self):
        spec = run.load_spec()
        names = [m["name"] for section in ("end_to_end", "per_layer")
                 for m in spec[section]]
        names += [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for section in ("end_to_end", "per_layer"):
            for metric in spec[section]:
                self.assertRegex(metric["unit"], UNIT)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(run.WORKLOADS))

    def test_mesh_baseline_cells(self):
        ref = run.load_reference("mesh-8x8", 0)
        self.assertEqual(len(ref), 10)
        mesh = smoke("mesh-8x8", 0)
        self.assertEqual(sorted(ref), sorted(own_reference(mesh)))
        for cell in mesh["cells"]:
            self.assertEqual(set(ref[cell["name"]]), set(cell["digest"]))


class Smoke(unittest.TestCase):
    """Each workload, untraced and traced, prints exactly its metrics."""

    def check(self, workload, trace):
        result = smoke(workload, trace)
        lines, record = run.evaluate(trace, result, own_reference(result))
        self.assertTrue(record["correct"], "\n".join(lines))
        self.assertEqual(record["failed"], 0)
        self.assertGreaterEqual(record["attempted"], 1)
        section = "per_layer" if trace else "end_to_end"
        expected = {m["name"]: m["unit"] for m in run.load_spec()[section]}
        self.assertEqual({k: v["unit"] for k, v in record["metrics"].items()},
                         expected)
        for name, metric in record["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
            if not trace:
                self.assertGreater(metric["value"], 0, name)
        # Every metric printed in the summary is a BENCHMARK.json metric
        # with the same unit.
        spec = run.load_spec()
        units = {m["name"]: m["unit"]
                 for m in spec["end_to_end"] + spec["per_layer"]}
        printed = [l.split(" ") for l in lines if " = " in l]
        self.assertGreaterEqual(len(printed), len(expected))
        for name, _, _, unit in printed:
            self.assertRegex(name, NAME)
            self.assertEqual(units.get(name), unit, name)
        claims = 8 if workload == "headline" else 0
        self.assertIn("paper_claims = %d count" % claims, lines)
        return result

    def test_headline(self):
        self.check("headline", 0)
        layers = self.check("headline", 1)["layers"]
        self.assertGreater(layers["sim.events"], 0)
        self.assertEqual(layers["explore.schedules"], 0)

    def test_mesh_8x8(self):
        self.check("mesh-8x8", 0)
        self.assertGreater(self.check("mesh-8x8", 1)["layers"][
            "noc.flits_per_event"], 0)

    def test_apps_racecheck(self):
        self.check("apps-racecheck", 0)
        layers = self.check("apps-racecheck", 1)["layers"]
        self.assertGreater(layers["analysis.data_accesses"], 0)

    def test_litmus_oracles(self):
        self.check("litmus-oracles", 0)
        layers = self.check("litmus-oracles", 1)["layers"]
        self.assertGreater(layers["explore.schedules"], 0)
        self.assertGreater(layers["axiom.executions"], 0)

    def test_full_command_on_recorded_reference(self):
        # The real entry point, against the checked-in reference.
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload",
             "litmus-oracles", "--seed", "5", "--seconds", "1",
             "--trace", "0"], capture_output=True, text=True, check=True)
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(record), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(record["correct"], proc.stdout)


class ChecksAreLive(unittest.TestCase):
    """Neither correctness check passes vacuously."""

    @classmethod
    def setUpClass(cls):
        cls.result = smoke("headline", 0)

    def test_perturbed_reference_is_drift(self):
        ref = own_reference(self.result)
        self.assertEqual(run.drift(self.result["cells"], ref), [])
        victim = self.result["cells"][3]["name"]
        ref[victim]["traffic.Read"] += 1
        moved = run.drift(self.result["cells"], ref)
        self.assertEqual([name for name, _ in moved], [victim])
        self.assertIn("traffic.Read", moved[0][1][0])
        lines, record = run.evaluate(0, self.result, ref)
        self.assertFalse(record["correct"])
        self.assertIn("sim_drift_cells = 1 count", lines)
        self.assertTrue(any(l.startswith("DRIFT " + victim) for l in lines))

    def test_missing_reference_cell_is_drift(self):
        ref = own_reference(self.result)
        del ref[self.result["cells"][0]["name"]]
        self.assertEqual(len(run.drift(self.result["cells"], ref)), 1)

    def test_forced_failure_counts(self):
        forced = smoke("headline", 0, ["--force-fail"])
        lines, record = run.evaluate(0, forced, own_reference(forced))
        self.assertFalse(record["correct"])
        self.assertEqual(record["failed"], 1)
        self.assertIn("cells_failed_frac = %.6g frac"
                      % (1 / record["attempted"]), lines)


ENGINE = None

if __name__ == "__main__":
    ENGINE = run.build_engine()
    unittest.main(verbosity=2)
