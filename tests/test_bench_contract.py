"""The benchmark's contract with the package, read from perfbench/ without
editing it: every name the span tracer wraps resolves, and the cheapest input
of each workload reproduces its recorded digest, untraced and traced."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")
REFERENCE = json.loads((BENCH / "reference.json").read_text())


@pytest.mark.parametrize("target", spans.TRACED + ["graph._sweep_level"])
def test_traced_name_resolves(target):
    mod, fn = target.split(".")
    assert callable(getattr(importlib.import_module(f"cycletree.{mod}"), fn))


def _cheapest(workload):
    entries = REFERENCE[workload]
    pool = entries["pool"]  # ordered by recorded cost
    return pool[0] if pool else min(entries["fixed"], key=lambda e: e[2])


@pytest.mark.parametrize("workload", sorted(workloads.SPECS))
def test_cheapest_input_reproduces_reference(workload):
    workloads.make_inputs(workload, 1)  # the generated pool matches the reference
    key, want, _ = _cheapest(workload)
    run = workloads.SPECS[workload].run
    assert workloads.digest(workload, run(key)) == want, key
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run(key)
    finally:
        tracer.uninstall()
    assert workloads.digest(workload, traced) == want, f"{key} (traced)"
    assert len(tracer.t0) > 0, "the tracer recorded no span"
