"""Span tracer for the traced run: wraps cycletree functions from outside.

Each wrapped function is replaced at every import site (every cycletree
module attribute bound to it), so ``cycletree.predictor.expand_children``
and ``cycletree.lifting.expand_children`` both record.  A span is (name,
start, end, parent span, item id); spans live in flat arrays until the run
ends.  ``arith`` is left unwrapped: its per-point calls would swamp the
timing, so its time lands in its callers' self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

TRACED = [
    "graph.build_tree_bruteforce",
    "graph.distance_to_cycle",
    "graph.tail_length_by_cycle",
    "verify.verify_map",
    "verify.check_lift_length_law",
    "verify.check_chain_congruences",
    "verify.check_kd_identity",
    "verify.check_orbit_lengths",
    "verify.check_tail_bounds",
    "lifting.compute_lin_at",
    "lifting.expand_children",
    "lifting.make_node",
    "checkers.is_permutation",
    "checkers.is_single_cycle",
    "predictor.analyze",
    "predictor.predict",
    "cli.render_json",
    "cli.main",
]


class Tracer:
    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack: list[int] = []
        self.item_id = -1
        self.paused = False
        self.points = Counter()  # item -> residues swept by _sweep_level
        self.nodes = Counter()  # item -> nodes returned by analyze
        self.sweep_s = 0.0
        self._sites: list[tuple] = []  # (module, attribute, original, wrapper)

    # -- installation --------------------------------------------------------

    def install(self):
        if not self._sites:
            self._find_sites()
        for module, attr, _, wrapper in self._sites:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, orig, _ in self._sites:
            setattr(module, attr, orig)

    def _find_sites(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "cycletree" or n.startswith("cycletree.")]
        wrappers = {}
        for i, target in enumerate(TRACED):
            mod, fn = target.split(".")
            orig = getattr(importlib.import_module(f"cycletree.{mod}"), fn)
            hook = self._count_nodes if target == "predictor.analyze" else None
            wrappers[id(orig)] = (orig, self._span_wrapper(orig, i, hook))
        sweep = importlib.import_module("cycletree.graph")._sweep_level
        wrappers[id(sweep)] = (sweep, self._sweep_wrapper(sweep))
        for module in modules:
            for attr, value in vars(module).items():
                if id(value) in wrappers:
                    self._sites.append((module, attr, *wrappers[id(value)]))

    # -- wrappers --------------------------------------------------------------

    def _span_wrapper(self, fn, name_id, hook):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tr.paused:
                return fn(*args, **kwargs)
            i = len(tr.t0)
            tr.name.append(name_id)
            tr.parent.append(tr.stack[-1] if tr.stack else -1)
            tr.item.append(tr.item_id)
            tr.t1.append(0.0)
            tr.stack.append(i)
            tr.t0.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.t1[i] = perf_counter()
                tr.stack.pop()
            if hook is not None:
                hook(result)
            return result

        return wrapper

    def _sweep_wrapper(self, fn):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tr.paused:
                return fn(*args, **kwargs)
            start = perf_counter()
            sweep = fn(*args, **kwargs)
            tr.sweep_s += perf_counter() - start
            tr.points[tr.item_id] += sweep.modulus
            return sweep

        return wrapper

    def _count_nodes(self, tree):
        self.nodes[self.item_id] += len(tree.nodes)

    # -- analysis ----------------------------------------------------------------

    def arrays(self, upto: int | None = None) -> dict[str, np.ndarray]:
        n = len(self.t0) if upto is None else upto
        return {
            "name": np.frombuffer(self.name, dtype=np.int32)[:n].copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32)[:n].copy(),
            "item": np.frombuffer(self.item, dtype=np.int32)[:n].copy(),
            "t0": np.frombuffer(self.t0, dtype=np.float64)[:n].copy(),
            "t1": np.frombuffer(self.t1, dtype=np.float64)[:n].copy(),
        }

    def item_calls(self, item_id: int) -> list[int]:
        spans = self.arrays()
        names = spans["name"][spans["item"] == item_id]
        return np.bincount(names, minlength=len(TRACED)).tolist()


def layer_times(spans: dict[str, np.ndarray]) -> tuple[dict, float, float]:
    """Per-function calls, inclusive and self seconds; plus the time covered
    by top-level spans and the sum of all self times (equal up to rounding).

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly, so self times partition the top-level
    spans."""
    dur = spans["t1"] - spans["t0"]
    parent = spans["parent"]
    nested = parent >= 0
    child = np.zeros(len(dur))
    np.add.at(child, parent[nested], dur[nested])
    own = dur - child
    k = len(TRACED)
    calls = np.bincount(spans["name"], minlength=k)
    incl = np.bincount(spans["name"], weights=dur, minlength=k)
    excl = np.bincount(spans["name"], weights=own, minlength=k)
    table = {name: (int(calls[i]), float(incl[i]), float(excl[i]))
             for i, name in enumerate(TRACED)}
    return table, float(dur[~nested].sum()), float(own.sum())
