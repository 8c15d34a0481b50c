"""Workload inputs, per-item calls into cycletree, and output digests.

Each workload draws its items from a fixed input pool generated from
``MASTER_SEED`` (plus, for the two deep workloads, a few fixed inputs).
``reference.json`` lists every pool item, ordered by its cost when the
reference was recorded, with the sha256 of its output.  A run's ``--seed``
picks which pool items it sees: every round takes one item from each cost
bin of the ordered pool, so runs with different seeds see different maps
but the same mix of cheap and expensive ones.  Every item a run can draw
has a recorded output, so every output is gated.

cycletree is called through module attributes (``verify.verify_map``, not a
name bound at import time) so that a tracer can swap in wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

from cycletree import checkers, cli, graph, predictor, verify
from cycletree.arith import IntPoly

MASTER_SEED = 20240811  # the acceptance corpus seed
ORACLE_POINTS = 10**5
WIDE_PRIMES = (1009, 1013, 1019, 1021)
README_POLY = "2,1,3,1,3,2"
REFERENCE = Path(__file__).with_name("reference.json")

# The first 600 wide maps include four whose analysis reaches the partial-
# split horizon rule (predictor.predict -> lifting.multiplier_valuation at
# precision p^(nu*d+1), d up to p-1): 3-6 s each against 0.3 s for the rest.
# At 4 in 600, whether a 20 s run draws one is a coin flip that moves
# items_per_s by up to 30%, so analyze-wide skips them; the first of them is
# a fixed input of analyze-deep, where the predictor is measured.
WIDE_HORIZON = (
    "p=1013 L=6 f=765,499,136,994,1008,903",
    "p=1019 L=6 f=892,330,265,762,187,736",
    "p=1019 L=6 f=429,504,581,659,292,622",
    "p=1009 L=6 f=257,605,914,423,280,86",
)


@dataclass
class Spec:
    """How a workload's rounds are built: fixed inputs plus ``bins`` pool
    items per round, from a pool of ``bins * per_bin`` generated maps."""

    fixed: list[str]
    bins: int
    per_bin: int
    pool: object  # size -> keys, or None
    run: object  # key -> output
    digest: object  # output -> canonical text
    checks: object  # output -> (checked, mismatches)


def _key(p: int, *polys: list[int], level: int | None = None) -> str:
    head = f"p={p}" + (f" L={level}" if level is not None else "")
    return head + " f=" + "/".join(",".join(map(str, c)) for c in polys)


def _parse_key(key: str) -> tuple[int, int | None, list[IntPoly]]:
    fields = dict(part.split("=") for part in key.split())
    level = int(fields["L"]) if "L" in fields else None
    polys = [IntPoly(int(x) for x in c.split(",")) for c in fields["f"].split("/")]
    return int(fields["p"]), level, polys


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# --------------------------------------------------------------------------
# verify-corpus: the acceptance soundness sweep at p^n <= 10^5
# --------------------------------------------------------------------------


def corpus_pool(size: int) -> list[str]:
    """Acceptance-generator maps: p in {3, 5, 7} weighted 200:150:150,
    degree <= 5 with coefficients in [0, p^2); one map in five is instead a
    rational map num/den (degrees <= 3 and <= 2, den nonzero)."""
    rng = random.Random(MASTER_SEED)
    keys = []
    while len(keys) < size:
        p = rng.choices((3, 5, 7), weights=(200, 150, 150))[0]
        if rng.random() < 0.2:
            num = [rng.randrange(p * p) for _ in range(4)]
            den = [rng.randrange(p * p) for _ in range(3)]
            if not any(den):
                continue
            keys.append(_key(p, num, den))
        else:
            keys.append(_key(p, [rng.randrange(p * p) for _ in range(6)]))
    return keys


def run_corpus_item(key: str):
    p, _, polys = _parse_key(key)
    if len(polys) == 1:
        fmap = oracle_map = polys[0]
    else:
        fmap = checkers.RationalMap(*polys)
        oracle_map = checkers.InverseEvalMap.of(fmap)  # independent route
    depth = verify.oracle_depth(p, ORACLE_POINTS)
    tree = graph.build_tree_bruteforce(oracle_map, p, depth, with_tail_lengths=True)
    rep = verify.verify_map(fmap, p, max_level=depth, oracle=tree)
    verify.check_lift_length_law(tree, p, rep)
    verify.check_chain_congruences(fmap, p, tree, rep)
    verify.check_kd_identity(fmap, p, tree, rep)
    verify.check_orbit_lengths(tree, p, rep)
    verify.check_tail_bounds(fmap, p, depth, report=rep, tree=tree)
    perm = cycle = None
    if len(polys) == 1:
        perm = [checkers.is_permutation(fmap, p, n) for n in range(1, 5)]
        cycle = [checkers.is_single_cycle(fmap, p, n) for n in range(1, 6)]
    return rep, tree, perm, cycle


def corpus_digest(out) -> str:
    rep, tree, perm, cycle = out
    if perm is not None:
        # the closed-form criteria must agree with the oracle just built
        brute_perm = [tree.tail_points[n] == 0 for n in range(1, 5)]
        brute_cycle = [tree.lengths[n] == [tree.p**n] for n in range(1, 6)]
        if perm != brute_perm or cycle != brute_cycle:
            raise AssertionError(f"criteria disagree with the oracle: "
                                 f"{perm} vs {brute_perm}, {cycle} vs {brute_cycle}")
    rules = {name: [s.checked, s.mismatches] for name, s in rep.rules.items()}
    return json.dumps({"rules": rules, "perm": perm, "cycle": cycle}, sort_keys=True)


def corpus_checks(out) -> tuple[int, int]:
    return out[0].checked, out[0].mismatches


# --------------------------------------------------------------------------
# verify-deep: the CLI verify command on the README polynomial
# --------------------------------------------------------------------------


def run_cli_verify(key: str):
    p, level, _ = _parse_key(key)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", "--prime", str(p), "--poly", README_POLY,
                         "--max-level", str(level)])
    return code, buf.getvalue()


def cli_digest(out) -> str:
    code, stdout = out
    return f"exit {code}\n{stdout}"


def cli_checks(out) -> tuple[int, int]:
    checked = mismatches = 0
    for line in out[1].splitlines():
        if " checked, " in line:  # "<rule>: <c> checked, <m> mismatches, ..."
            counts = line.split(": ", 1)[1].split(", ")
            checked += int(counts[0].split()[0])
            mismatches += int(counts[1].split()[0])
    return checked, mismatches


# --------------------------------------------------------------------------
# analyze-wide / analyze-deep: the analytic engine alone
# --------------------------------------------------------------------------


def wide_pool(size: int) -> list[str]:
    """Random degree-5 polynomials with coefficients in [0, p), at primes
    just above 1000, analyzed to level 6 (skipping WIDE_HORIZON)."""
    rng = random.Random(MASTER_SEED + 1)
    keys = []
    while len(keys) < size:
        p = rng.choice(WIDE_PRIMES)
        key = _key(p, [rng.randrange(p) for _ in range(6)], level=6)
        if key not in WIDE_HORIZON:
            keys.append(key)
    return keys


def deep_pool(size: int) -> list[str]:
    """Near-identity maps x + p^j g(x), j in [4, 10], g of degree <= 3 with
    coefficients in [0, p^2); analyzed to level 30 (p = 3, 5) or 16 (p = 7)."""
    rng = random.Random(MASTER_SEED + 2)
    keys = []
    for _ in range(size):
        p = rng.choice((3, 5, 7))
        j = rng.randint(4, 10)
        coeffs = [rng.randrange(p * p) * p**j for _ in range(4)]
        coeffs[1] += 1
        keys.append(_key(p, coeffs, level=30 if p < 7 else 16))
    return keys


def run_analyze(key: str):
    p, level, (f,) = _parse_key(key)
    return predictor.analyze(f, p, max_level=level)


def run_analyze_render(key: str):
    return cli.render_json(run_analyze(key))


def no_checks(out) -> tuple[int, int]:
    return 0, 0


SPECS = {
    "verify-corpus": Spec([], 40, 40, corpus_pool, run_corpus_item, corpus_digest,
                          corpus_checks),
    "verify-deep": Spec([_key(5, [2, 1, 3, 1, 3, 2], level=9),
                         _key(3, [2, 1, 3, 1, 3, 2], level=13)],
                        0, 0, None, run_cli_verify, cli_digest, cli_checks),
    "analyze-wide": Spec([], 20, 30, wide_pool, run_analyze, cli.render_json, no_checks),
    "analyze-deep": Spec([_key(p, [0, 1], level=level)
                          for p, level in ((3, 30), (5, 30), (7, 16))]
                         + [WIDE_HORIZON[0]],
                         48, 10, deep_pool, run_analyze_render, str, no_checks),
}


def generate_pool(workload: str) -> list[str]:
    spec = SPECS[workload]
    return spec.pool(spec.bins * spec.per_bin) if spec.pool else []


def load_reference(workload: str) -> tuple[list[str], dict[str, str]]:
    """(pool keys in recorded cost order, expected sha256 by key)."""
    entries = json.loads(REFERENCE.read_text())[workload]
    ordered = [e[0] for e in entries["pool"]]
    return ordered, {e[0]: e[1] for e in entries["fixed"] + entries["pool"]}


def make_inputs(workload: str, seed: int):
    """Seeded round generator plus the expected digest of every input."""
    spec = SPECS[workload]
    generated = generate_pool(workload)
    ordered, expected = load_reference(workload)
    if sorted(generated) != sorted(ordered):
        raise RuntimeError(f"{workload}: generated pool differs from reference.json")
    rng = random.Random(seed)
    picks = [rng.sample(range(spec.per_bin), spec.per_bin) for _ in range(spec.bins)]

    def rounds():
        r = 0
        while True:
            items = list(spec.fixed) + [
                ordered[b * spec.per_bin + picks[b][r % spec.per_bin]]
                for b in range(spec.bins)]
            rng.shuffle(items)
            yield items
            r += 1

    return rounds(), expected


def digest(workload: str, out) -> str:
    return _sha(SPECS[workload].digest(out))
