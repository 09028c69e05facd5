#!/usr/bin/env python3
"""Benchmark entry point: builds the workload driver from source, runs one
workload for a fixed wall-clock budget, checks every run's output and prints
the metrics as one JSON object on the last line of stdout.

    python3 perfbench/run.py --workload full_1000rx --seed 0 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 the
per-layer ones.  Run it from the root of the checkout.  See
perfbench/README.md for the workloads, the metrics and the output checks.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "perfbench_driver")
DIGESTS = os.path.join(HERE, "digests.json")

CHILD_TIMEOUT_S = 170
MAX_REPS = 64
# Run k of an invocation with --seed n simulates seed offset
# n * OPS_PER_SEED + k % sub_seeds(workload): the runs rotate over that many
# seeds, and every seed gets at least two runs.  churn_2000rx's runs take
# about 4.5 s, so it rotates over three seeds to keep its ten-odd runs
# within the budget; its work varies little more over three seeds than
# over five.
OPS_PER_SEED = 1000
SUB_SEEDS = 5
SUB_SEEDS_OF = {"churn_2000rx": 3}
RUNS_PER_SEED = 2
# Build types whose timings are comparable.
OPTIMIZED = {"Release", "RelWithDebInfo", "MinSizeRel"}
# Counts that belong to the simulated outcome (sender, receiver, net,
# membership, sweep points).  Scheduler events, pool allocations and the
# worker count describe how it was computed, which an optimisation may
# change, so they are compared between runs but not digested.
DIGESTED = ("net.", "tfmcc.", "mcast.", "sim.sweep.points")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configures and builds the driver in .bench_build (a no-op when up to
    date).  Refuses debug and sanitizer build trees."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources (src/) not found next to perfbench/")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.isfile(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench_driver",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return check_build_tree(cache)


def check_build_tree(cache):
    entries = {}
    with open(cache, encoding="utf-8") as f:
        for line in f:
            if ":" in line and "=" in line and not line.startswith(("#", "//")):
                key, _, value = line.rstrip("\n").partition("=")
                entries[key.split(":")[0]] = value
    build_type = entries.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(v for k, v in entries.items()
                     if k.startswith("CMAKE_CXX_FLAGS"))
    if build_type not in OPTIMIZED:
        raise BenchError(f"refusing build type '{build_type}': not optimized")
    if "-fsanitize" in flags or entries.get("TFMCC_SANITIZE") == "ON":
        raise BenchError("refusing a sanitizer build")
    return build_type


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def driver(args):
    """Runs the driver once and returns its JSON result."""
    try:
        p = subprocess.run([DRIVER] + args, capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"driver {' '.join(args)} timed out") from e
    if p.returncode != 0:
        raise BenchError(f"driver {' '.join(args)} exited {p.returncode}: "
                         f"{p.stderr.strip()}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if "run_s" in result:
        log(f"run: {' '.join(args)}: setup_s {result['setup_s']:.4f} "
            f"run_s {result['run_s']:.4f}")
    return result


def digest(result):
    """The result digest: the mirrored scenario's CSV plus the outcome
    counts."""
    counts = {k: v for k, v in result["counts"].items()
              if k.startswith(DIGESTED)}
    text = result["series"] + "\n" + json.dumps(counts, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def sub_seeds(workload):
    return SUB_SEEDS_OF.get(workload, SUB_SEEDS)


def op_seed(workload, seed, k):
    """Scenario-seed offset of the k-th run of an invocation: the runs
    rotate over sub_seeds(workload) seeds drawn from --seed."""
    return (seed * OPS_PER_SEED + k % sub_seeds(workload)) % 2**64


class Verdicts:
    """Output checks over all runs of one invocation."""

    def __init__(self, workload, recorded):
        self.recorded = recorded.get(workload, {})
        self.seen = {}  # seed -> (digest, counts) of its first run
        self.attempted = 0
        self.failed = 0
        self.checked_digests = 0

    def judge(self, result):
        """Counts one run; it fails when a paper claim diverges, when its
        digest differs from the one recorded for its seed, or when its digest
        or any count differs from an earlier run of the same seed (for a
        traced run: from its untraced twin)."""
        self.attempted += 1
        d = digest(result)
        seed = str(result["seed"])
        problems = [c["what"] for c in result["checks"] if not c["ok"]]
        expected = self.recorded.get(seed)
        if expected is not None:
            self.checked_digests += 1
            if d != expected:
                problems.append(f"digest {d[:16]} != recorded {expected[:16]}")
        if self.seen.setdefault(seed, (d, result["counts"])) != (d, result["counts"]):
            problems.append("output differs from an earlier run of this seed")
        if problems:
            self.failed += 1
            log(f"FAILED run {self.attempted} (seed {seed}, "
                f"{'traced' if result['trace'] else 'untraced'}): " +
                "; ".join(problems))


def median(values):
    return statistics.median(values)


def driver_args(workload, seed, k):
    return ["--workload", workload, "--seed", str(op_seed(workload, seed, k))]


def until_budget(seconds, min_runs, one_run):
    """Calls one_run(k) for k = 0, 1, ... while the next call is expected to
    end within `seconds`, and at least min_runs times."""
    results = []
    start = time.monotonic()
    while len(results) < MAX_REPS:
        results.append(one_run(len(results)))
        elapsed = time.monotonic() - start
        if (len(results) >= min_runs and
                elapsed * (len(results) + 1) / len(results) > seconds):
            break
    return results


def fastest_per_seed(runs, value):
    """Mean over the invocation's seeds of each seed's fastest of at least
    two runs: other processes on the machine only ever slow a run down, and
    the mean over seeds evens out how much work each seed's trajectory
    takes."""
    best = {}
    for r in runs:
        v = value(r)
        best[r["seed"]] = min(best.get(r["seed"], v), v)
    return statistics.fmean(best.values())


def run_untraced(workload, seed, seconds, verdicts):
    def one_run(k):
        r = driver(driver_args(workload, seed, k))
        verdicts.judge(r)
        return r
    runs = until_budget(seconds, RUNS_PER_SEED * sub_seeds(workload), one_run)
    return {
        # Set-up builds the same topology, flow and schedule sizes (or the
        # same grid) at every seed, so the fastest of all runs is its time
        # with the least interference.
        "setup_s": min(r["setup_s"] for r in runs),
        "run_s": fastest_per_seed(runs, lambda r: r["run_s"]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in runs]),
        "points_per_s": 1.0 / fastest_per_seed(
            runs, lambda r: r["run_s"] / r["points"]),
    }


def run_traced(workload, seed, seconds, verdicts):
    """Untraced/traced pairs on one seed each: digests and counts must agree
    within a pair.  Counts are reported from the first pair (exact for the
    invocation's seed); span times and probes are medians over all pairs."""
    def one_pair(k):
        args = driver_args(workload, seed, k)
        plain = driver(args)
        verdicts.judge(plain)
        traced = driver(args + ["--trace"])
        verdicts.judge(traced)
        return plain, traced
    pairs = until_budget(seconds, 1, one_pair)
    first = pairs[0][1]
    metrics = dict(first["counts"])
    for group in ("traced", "probes"):
        for name in first[group]:
            metrics[name] = median([t[group][name] for _, t in pairs])
    metrics["tracing.overhead"] = median([t["run_s"] / p["run_s"]
                                          for p, t in pairs])
    return metrics


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload '{args.workload}' "
                         f"(expected one of {', '.join(names)})")
    if args.seed < 0:
        raise BenchError("--seed must be non-negative")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_type = build()
    machine = driver(["--machine"])
    machine.update({"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                    "build_tree_type": build_type})
    print("machine: " + json.dumps(machine, sort_keys=True))

    verdicts = Verdicts(args.workload, load_json(DIGESTS))
    run = run_traced if args.trace else run_untraced
    values = run(args.workload, args.seed, args.seconds, verdicts)
    print(f"runs: {verdicts.attempted}, digests checked against the "
          f"record: {verdicts.checked_digests}")

    if set(values) != {m["name"] for m in declared}:
        raise BenchError("metric names differ from BENCHMARK.json: "
                         f"{sorted(set(values) ^ {m['name'] for m in declared})}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    if args.trace:
        print(f"{'layer metric':34} {'value':>16}  unit")
        for name, m in metrics.items():
            print(f"{name:34} {m['value']:16.6g}  {m['unit']}")
    print(json.dumps({"correct": verdicts.failed == 0,
                      "attempted": verdicts.attempted,
                      "failed": verdicts.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log(f"error: {e}")
        sys.exit(2)
