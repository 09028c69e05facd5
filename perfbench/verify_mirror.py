#!/usr/bin/env python3
"""Checks each workload against the tfmcc_sim scenario it mirrors and
records its result digests in perfbench/digests.json.

For every workload and seed it runs the benchmark driver and the mirrored
scenario, and requires that
  * the driver's series equals the scenario's CSV byte for byte,
  * every CHECK line of the scenario passes and every claim the driver
    evaluates passes,
  * the counts the scenario reports in its NOTE lines (sender rounds and
    feedback, membership joins and leaves) equal the driver's counts.
Only then is the digest recorded.  A seed here is the driver's seed
offset, as run.py passes it (run k of `run.py --seed n` uses
n * 1000 + k % 5, or k % 3 for churn_2000rx).
Build tfmcc_sim first, e.g.

    cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j
    python3 perfbench/verify_mirror.py --tfmcc-sim build/bench/tfmcc_sim \\
        --seeds 0-4,1000-1004 [--workload NAME] [--write]
"""

import argparse
import json
import os
import re
import subprocess
import sys

import run

SCENARIO_SEED = {"full_1000rx": 121, "hybrid_1m": 131, "churn_2000rx": 800,
                 "sweep_fig07": 0}


def mirrored_command(workload, seed, jobs):
    """The tfmcc_sim command line of the scenario a workload mirrors.  The
    sweep's aggregate is the same for any --jobs; the driver's count is
    passed anyway."""
    s = str(SCENARIO_SEED[workload] + seed)
    return {
        "full_1000rx": ["fig12_rtt_acquisition", "--duration", "100",
                        "--seed", s],
        "hybrid_1m": ["scale_hybrid_receivers", "--set", "n_receivers=1000000",
                      "--seed", s],
        "churn_2000rx": ["churn_flash_crowd", "--seed", s],
        "sweep_fig07": ["sweep", "fig07_scaling", "--sweep",
                        "n_receivers=1:1000:log8", "--replicate", "64",
                        "--jobs", str(jobs), "--seed", s],
    }[workload]


def csv_part(text):
    return "".join(line + "\n" for line in text.splitlines()
                   if line and not line.startswith(("#", "CHECK ", "NOTE:")))


def note_counts(workload, text):
    """Counts the mirrored scenario reports in its NOTE lines."""
    found = {}
    m = re.search(r"NOTE: rounds: (\d+)", text)
    if m:
        found["tfmcc.tx.rounds"] = int(m.group(1))
    m = re.search(r"feedback messages: (\d+)", text)
    if m:
        found["tfmcc.tx.feedback_received"] = int(m.group(1))
    m = re.search(r"(\d+) crowd joins \+ \d+ churn toggles "
                  r"\((\d+) rejoins, (\d+) leaves\)", text)
    if m:
        found["mcast.joins"] = 1 + int(m.group(1)) + int(m.group(2))
        found["mcast.leaves"] = int(m.group(3))
    expected = {"full_1000rx": 2, "hybrid_1m": 1, "churn_2000rx": 2,
                "sweep_fig07": 0}[workload]
    if len(found) < expected:
        raise SystemExit(f"{workload}: mirrored NOTE lines not found")
    return found


def verify(tfmcc_sim, workload, seed):
    r = run.driver(["--workload", workload, "--seed", str(seed)])
    jobs = int(r["counts"]["sim.sweep.jobs"]) or 1
    p = subprocess.run([tfmcc_sim] + mirrored_command(workload, seed, jobs),
                       capture_output=True, text=True, check=True)
    problems = []
    if csv_part(p.stdout) != r["series"]:
        problems.append("series differs from the mirrored scenario's CSV")
    if "CHECK DIVERGES" in p.stdout:
        problems.append("a mirrored CHECK diverges")
    problems += [f"claim fails: {c['what']}" for c in r["checks"] if not c["ok"]]
    for name, value in note_counts(workload, p.stdout).items():
        if r["counts"][name] != value:
            problems.append(f"{name}: driver {r['counts'][name]} != scenario {value}")
    return run.digest(r), problems


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tfmcc-sim", required=True)
    ap.add_argument("--seeds", default="0", help="e.g. 0, 0-9 or 0-3,1000")
    ap.add_argument("--workload", action="append",
                    help="repeatable; default every workload")
    ap.add_argument("--write", action="store_true",
                    help="record the verified digests in digests.json")
    args = ap.parse_args(argv)

    run.build()
    workloads = args.workload or [w["name"] for w in run.load_json(
        os.path.join(run.ROOT, "BENCHMARK.json"))["workloads"]]
    recorded = run.load_json(run.DIGESTS)
    ok = True
    for w in workloads:
        for seed in parse_seeds(args.seeds):
            d, problems = verify(args.tfmcc_sim, w, seed)
            old = recorded.get(w, {}).get(str(seed))
            if old is not None and old != d:
                problems.append(f"digest {d[:16]} != recorded {old[:16]}")
            print(f"{w} seed {seed}: {d} " +
                  ("OK" if not problems else "FAIL: " + "; ".join(problems)),
                  flush=True)
            if problems:
                ok = False
            else:
                recorded.setdefault(w, {})[str(seed)] = d
    if args.write and ok:
        with open(run.DIGESTS, "w", encoding="utf-8") as f:
            json.dump(recorded, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
