#!/usr/bin/env python3
"""Self-tests of the benchmark.  Run from the root of the checkout:

    python3 -m unittest discover -s perfbench/tests -v

They build the driver (as run.py does) and take about a minute.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402

SPEC = run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))


def run_py(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def sweep_result(self, seed=0):
        return run.driver(["--workload", "sweep_fig07", "--seed", str(seed)])

    def test_wrong_recorded_digest_fails_the_run(self):
        result = self.sweep_result()
        good = run.digest(result)
        v = run.Verdicts("sweep_fig07", {"sweep_fig07": {"0": good}})
        v.judge(result)
        self.assertEqual((v.attempted, v.failed, v.checked_digests), (1, 0, 1))
        wrong = ("0" if good[0] != "0" else "1") + good[1:]
        v = run.Verdicts("sweep_fig07", {"sweep_fig07": {"0": wrong}})
        v.judge(result)
        self.assertEqual((v.attempted, v.failed), (1, 1))

    def test_failed_claim_or_changed_output_fails_the_run(self):
        result = self.sweep_result()
        v = run.Verdicts("sweep_fig07", {})
        v.judge(dict(result, checks=[{"what": "x", "ok": False}]))
        self.assertEqual(v.failed, 1)
        # A second run of the same seed (e.g. the traced twin) must repeat
        # every count.
        counts = dict(result["counts"], **{"sched.events": 1.0})
        v = run.Verdicts("sweep_fig07", {})
        v.judge(result)
        v.judge(dict(result, counts=counts, trace=True))
        self.assertEqual((v.attempted, v.failed), (2, 1))

    def test_printed_metric_names_match_benchmark_json(self):
        for trace, declared in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
            p = run_py(run.ROOT, "--workload", "sweep_fig07", "--seed", "0",
                       "--seconds", "1", "--trace", trace)
            self.assertEqual(p.returncode, 0, p.stderr)
            out = last_json(p.stdout)
            self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(out["correct"])
            self.assertEqual(set(out["metrics"]), {m["name"] for m in declared})
            for m in declared:
                self.assertEqual(out["metrics"][m["name"]]["unit"], m["unit"])
        # Every workload's traced run yields the same per-layer names.
        traced = run.driver(["--workload", "hybrid_1m", "--seed", "0", "--trace"])
        names = set(traced["counts"]) | set(traced["traced"]) | set(traced["probes"])
        names.add("tracing.overhead")
        self.assertEqual(names, {m["name"] for m in SPEC["per_layer"]})

    def test_same_seed_reproduces_every_count(self):
        a = run.driver(["--workload", "churn_2000rx", "--seed", "3"])
        b = run.driver(["--workload", "churn_2000rx", "--seed", "3", "--trace"])
        self.assertEqual(a["counts"], b["counts"])
        self.assertEqual(a["series"], b["series"])
        self.assertEqual(run.digest(a), run.digest(b))
        self.assertEqual(self.sweep_result(5)["series"], self.sweep_result(5)["series"])

    def test_seed_changes_generated_inputs(self):
        def column(workload, seed, name):
            r = run.driver(["--workload", workload, "--seed", str(seed)])
            rows = [line.split(",") for line in r["series"].splitlines()]
            col = rows[0].index(name)
            return [row[col] for row in rows[1:]]
        # The churn series' trajectory of applied membership events is the
        # generated schedule, sampled once per second.
        self.assertNotEqual(column("churn_2000rx", 0, "churn_events_applied"),
                            column("churn_2000rx", 1, "churn_events_applied"))
        # The access delays set the receivers' RTTs, which the RTT
        # acquisition trajectory follows.
        self.assertNotEqual(
            column("full_1000rx", 0, "receivers_with_valid_rtt"),
            column("full_1000rx", 1, "receivers_with_valid_rtt"))

    def test_refuses_to_run_without_the_library_sources(self):
        bare = os.path.join(run.BUILD, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            p = run_py(bare, "--workload", "sweep_fig07", "--seed", "0",
                       "--seconds", "1", "--trace", "0")
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
