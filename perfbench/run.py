"""cycletree benchmark: one workload in a fresh single-threaded process.

    python3 perfbench/run.py --workload verify-corpus --seed 1 --seconds 15 --trace 0

A closed loop with one client: each item is sent only after the previous one
returns.  The loop runs whole rounds (see workloads.py) until ``--seconds``
have passed, checks every output against reference.json, and prints one JSON
result as its last line.

--trace 0 reports the end-to-end metrics: setup_s (import cycletree and
generate the inputs, median of five fresh processes), items_per_s (items
per second of item time), item_p50_s / item_p90_s, and peak_rss_mb.

--trace 1 wraps the layer functions (spans.py) and runs each item traced and
untraced back to back until ``--seconds`` of traced item time have passed;
the difference is the tracing overhead.  It then re-runs the first item
traced to check that every count repeats, and reports per-layer metrics.
Spans are written to perfbench/out/.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
import workloads
workloads.make_inputs(sys.argv[2], int(sys.argv[3]))
print(time.perf_counter() - t0)
"""
SETUP_REPEATS = 5


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh processes of importing cycletree and generating the
    inputs (interpreter start-up excluded)."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(ROOT), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Loop:
    """Runs items one at a time and checks each output."""

    def __init__(self, workloads, workload: str, expected: dict[str, str]):
        self.w = workloads
        self.workload = workload
        self.spec = workloads.SPECS[workload]
        self.expected = expected
        self.tracer = None  # set by per_layer while an item runs traced
        self.reported = 0

    def run_item(self, key: str, item_id: int) -> dict:
        tracer = self.tracer
        if tracer is not None:
            tracer.item_id = item_id
        # Collect the previous item's reference cycles (the analyze trees
        # hold parent/child cycles) here, so that the collector does not
        # charge them to whichever later item happens to trigger it.
        gc.collect()
        start = time.perf_counter()
        try:
            out = self.spec.run(key)
            error = None
        except Exception:  # an item that raises counts as failed
            out, error = None, traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.paused = True
        try:
            checked = mismatches = 0
            if error is None:
                checked, mismatches = self.spec.checks(out)
                got = self.w.digest(self.workload, out)
                if mismatches:
                    error = f"{mismatches} verification mismatches"
                elif got != self.expected[key]:
                    error = f"output sha256 {got} differs from reference"
        except Exception:
            error = traceback.format_exc(limit=3)
        finally:
            if tracer is not None:
                tracer.paused = False
        if error and self.reported < 5:
            self.reported += 1
            print(f"FAILED {self.workload} [{key}]: {error}", file=sys.stderr)
        return {"key": key, "s": elapsed, "ok": error is None,
                "checks": checked, "mismatches": mismatches}

    def until(self, rounds, seconds: float) -> list[dict]:
        """Whole rounds until ``seconds`` of wall time have passed."""
        results = []
        start = time.perf_counter()
        for items in rounds:
            for key in items:
                results.append(self.run_item(key, len(results)))
            if time.perf_counter() - start >= seconds:
                return results


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")},
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(results: list[dict], setup_s: float) -> dict:
    times = [r["s"] for r in results]
    good = sum(r["ok"] for r in results)
    return {
        "setup_s": metric(setup_s, "s"),
        "items_per_s": metric(good / sum(times), "1/s"),
        "item_p50_s": metric(percentile(times, 0.5), "s"),
        "item_p90_s": metric(percentile(times, 0.9), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(workload: str, seed: int, loop: Loop, rounds, seconds: float):
    """Traced loop with an untraced run of each item beside it, then a
    determinism re-run."""
    import numpy as np

    from spans import Tracer, layer_times

    tracer = Tracer()
    traced, untraced = [], []

    def run(key, item_id, trace):
        if trace:
            tracer.install()
            loop.tracer = tracer
        try:
            return loop.run_item(key, item_id)
        finally:
            tracer.uninstall()
            loop.tracer = None

    # Each item runs traced and untraced back to back, alternating which
    # goes first, so that drift in machine speed cancels in the overhead.
    for items in rounds:
        for key in items:
            i = len(traced)
            first = i % 2 == 0
            a = run(key, i, first)
            b = run(key, i, not first)
            traced.append(a if first else b)
            untraced.append(b if first else a)
        if sum(r["s"] for r in traced) >= seconds:
            break
    boundary = len(tracer.t0)
    points = sum(tracer.points.values())
    nodes = sum(tracer.nodes.values())
    sweep_s = tracer.sweep_s

    # Determinism: run the first item again and compare every count.
    rerun_id = len(traced)
    head = traced[0]
    again = run(head["key"], rerun_id, True)
    counts = [tracer.item_calls(0), tracer.points[0], tracer.nodes[0], head["checks"]]
    repeat = [tracer.item_calls(rerun_id), tracer.points[rerun_id],
              tracer.nodes[rerun_id], again["checks"]]
    count_mismatches = sum(a != b for a, b in zip(counts[0], repeat[0]))
    count_mismatches += sum(a != b for a, b in zip(counts[1:], repeat[1:]))
    if count_mismatches:
        print(f"FLAGGED {workload}: counts differ between two runs of "
              f"[{head['key']}]: {counts} vs {repeat}", file=sys.stderr)

    spans = tracer.arrays(boundary)
    table, covered, self_total = layer_times(spans)
    wall = sum(r["s"] for r in traced)
    untraced_wall = sum(r["s"] for r in untraced)
    consistent = abs(covered - self_total) <= 1e-6 * max(1.0, covered)

    OUT.mkdir(exist_ok=True)
    np.savez_compressed(OUT / f"trace-{workload}-seed{seed}.npz",
                        names=np.array(list(table)),
                        keys=np.array([r["key"] for r in traced]), **spans)

    metrics = {}
    for name, (calls, incl, excl) in table.items():
        metrics[f"{name}.calls"] = metric(calls, "count")
        metrics[f"{name}.s"] = metric(incl, "s")
        metrics[f"{name}.self_s"] = metric(excl, "s")
    builds = table["graph.build_tree_bruteforce"][0]
    metrics.update({
        "graph.points_swept": metric(points, "count"),
        "graph.points_per_s": metric(points / sweep_s if sweep_s else 0.0, "1/s"),
        "graph.oracle_builds_per_item": metric(builds / len(traced), "ratio"),
        "predictor.nodes": metric(nodes, "count"),
        "verify.checks": metric(sum(r["checks"] for r in traced), "count"),
        "verify.mismatches": metric(sum(r["mismatches"] for r in traced), "count"),
        "trace.wall_s": metric(wall, "s"),
        "trace.unattributed_s": metric(wall - self_total, "s"),
        "trace.overhead_s": metric(wall - untraced_wall, "s"),
        "trace.count_mismatches": metric(count_mismatches, "count"),
    })
    print(f"trace: {len(traced)} items, traced {wall:.3f} s = layer self "
          f"{self_total:.3f} s + unattributed {wall - self_total:.3f} s; "
          f"untraced {untraced_wall:.3f} s; overhead {wall - untraced_wall:.3f} s "
          f"({(wall - untraced_wall) / untraced_wall:.1%})")
    failed = sum(not r["ok"] for r in traced + untraced) + (not again["ok"])
    correct = failed == 0 and count_mismatches == 0 and consistent
    return traced, failed, correct, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify-corpus", "verify-deep", "analyze-wide",
                                 "analyze-deep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cycletree" / "__init__.py").is_file():
        print(f"error: no cycletree sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import workloads

    rounds, expected = workloads.make_inputs(args.workload, args.seed)
    gc.collect()
    gc.freeze()  # keep the benchmark's own objects out of later collections
    loop = Loop(workloads, args.workload, expected)
    print("env: " + json.dumps(environment(), sort_keys=True))
    if args.trace:
        results, failed, correct, metrics = per_layer(
            args.workload, args.seed, loop, rounds, args.seconds)
    else:
        setup_s = setup_seconds(args.workload, args.seed)
        results = loop.until(rounds, args.seconds)
        failed = sum(not r["ok"] for r in results)
        correct = failed == 0
        metrics = end_to_end(results, setup_s)
        times = [r["s"] for r in results]
        print(f"{args.workload} seed {args.seed}: {len(results)} items in "
              f"{sum(times):.3f} s; p50 {percentile(times, 0.5):.4f} s and p90 "
              f"{percentile(times, 0.9):.4f} s over {len(times)} samples; "
              f"failed_ratio {failed / len(results):.4f}; "
              f"checks {sum(r['checks'] for r in results)}, "
              f"mismatches {sum(r['mismatches'] for r in results)}")
    print(json.dumps({"correct": correct, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
