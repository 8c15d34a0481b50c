"""Record reference outputs for every input a workload can draw.

    python3 perfbench/record.py verify-corpus analyze-wide --into perfbench/reference.json

Runs each fixed input and each pool item once, untraced, and stores for each
workload the sha256 of every output and the item time it took, with the
pool ordered by that time (run.py bins the pool by that order).  Run it on
the commit whose outputs are the reference; it stops at an item that raises
or reports a verification mismatch.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402


def record(workload: str) -> dict:
    spec = workloads.SPECS[workload]

    def entry(key):
        gc.collect()  # as run.py does before each item
        start = time.perf_counter()
        out = spec.run(key)
        elapsed = time.perf_counter() - start
        if spec.checks(out)[1]:
            raise SystemExit(f"{workload} [{key}]: verification mismatch")
        return elapsed, [key, workloads.digest(workload, out), round(elapsed, 4)]

    fixed = [entry(key)[1] for key in spec.fixed]
    timed = sorted((entry(key) for key in workloads.generate_pool(workload)),
                   key=lambda e: e[0])
    if timed:
        costs = [t for t, _ in timed]
        print(f"{workload}: {len(costs)} pool items, {sum(costs):.1f} s, "
              f"min {costs[0]:.3f} median {costs[len(costs) // 2]:.3f} "
              f"max {costs[-1]:.3f}", file=sys.stderr)
    return {"fixed": fixed, "pool": [e for _, e in timed]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", nargs="+", choices=sorted(workloads.SPECS))
    parser.add_argument("--into", type=Path, default=workloads.REFERENCE)
    args = parser.parse_args()
    sections = {w: record(w) for w in args.workload}
    data = json.loads(args.into.read_text()) if args.into.exists() else {}
    data.update(sections)
    args.into.write_text(dump(data))
    return 0


def dump(data: dict) -> str:
    """JSON with one entry per line, so that a re-recording diffs by item."""
    def entries(rows):
        return "[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]"

    return "{\n" + ",\n".join(
        f'"{w}": {{"fixed": {entries(sec["fixed"])}, "pool": {entries(sec["pool"])}}}'
        for w, sec in sorted(data.items())) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
