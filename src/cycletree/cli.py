"""Command-line front end.

Exit codes: 0 ok, 1 verification mismatch, 2 usage/parse error, 3 budget
exceeded, 4 broken internal invariant (InvariantError).  Output formats: text
(default), json, dot.  The point budget defaults to 10^7 and can be overridden
with --budget or CYCLETREE_BUDGET; a budget below 1, or a negative --max-level,
--levels, --random, --degree or --max-deepen, is a usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import sys
from itertools import chain
from operator import attrgetter

from .arith import IntPoly, OddPrime
from .checkers import RationalMap, is_permutation, is_single_cycle
from .errors import BudgetExceededError, CycletreeError, InvariantError
from .graph import DEFAULT_BUDGET, enumerate_level, tail_analysis
from .predictor import AnalyzedTree, TreeNode, analyze, tail_bound
from .verify import random_poly, verify_all

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INVARIANT = 4


def _add_common(sub: argparse.ArgumentParser, rational: bool = False):
    sub.add_argument("--prime", "-p", required=True, help="odd prime p")
    sub.add_argument("--poly", required=not rational,
                     help="comma-separated coefficients, constant first")
    if rational:
        sub.add_argument("--num", help="numerator coefficients (rational map)")
        sub.add_argument("--den", help="denominator coefficients (rational map)")
    sub.add_argument("--budget", type=int, default=None,
                     help="point budget (default: CYCLETREE_BUDGET or 10^7)")


def _parse_map(args):
    num, den = getattr(args, "num", None), getattr(args, "den", None)
    if num or den:
        if args.poly:
            raise ValueError("give either --poly or --num/--den, not both")
        if not (num and den):
            raise ValueError("--num and --den must be given together")
        return RationalMap(IntPoly.parse(num), IntPoly.parse(den))
    if not args.poly:
        raise ValueError("a map is required: --poly or --num/--den")
    return IntPoly.parse(args.poly)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycletree",
        description="Cycle-lift trees of polynomial maps of Z/p^nZ: analyze, "
                    "predict, and verify against brute force.")
    subs = parser.add_subparsers(dest="command", required=True)

    ana = subs.add_parser("analyze", help="build and annotate the lift tree")
    _add_common(ana, rational=True)
    ana.add_argument("--max-level", type=int, default=9)
    ana.add_argument("--max-deepen", type=int, default=3)
    ana.add_argument("--format", choices=("text", "json", "dot"), default="text")

    ver = subs.add_parser("verify", help="differential check of predictions vs oracle")
    _add_common(ver, rational=True)
    ver.add_argument("--random", type=int, default=0, metavar="N",
                     help="verify N random polynomials instead")
    ver.add_argument("--degree", type=int, default=5)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--max-level", type=int, default=None)

    perm = subs.add_parser("permcheck", help="permutation criterion vs brute force")
    _add_common(perm)
    perm.add_argument("--levels", type=int, default=3, help="check n = 1..levels")

    cyc = subs.add_parser("cyclecheck", help="single-p^n-cycle criterion vs brute force")
    _add_common(cyc)
    cyc.add_argument("--levels", type=int, default=5, help="check n = 1..levels")

    tails = subs.add_parser("tails", help="fiber histogram over a critical class")
    _add_common(tails)
    tails.add_argument("--level", type=int, required=True)
    tails.add_argument("--class", dest="klass", type=int, required=True,
                       help="mod-p class on a critical cycle")

    orb = subs.add_parser("orbits", help="possible p-adic periodic orbit lengths")
    _add_common(orb, rational=True)
    orb.add_argument("--max-level", type=int, default=9)
    orb.add_argument("--max-deepen", type=int, default=3)
    return parser


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def render_text(tree: AnalyzedTree) -> str:
    lines = []
    desc = tree.map_desc
    if "poly" in desc:
        lines.append(f"map: {IntPoly(desc['poly'])}  (p = {tree.p})")
    else:
        lines.append(f"map: ({IntPoly(desc['num'])}) / ({IntPoly(desc['den'])})  (p = {tree.p})")
    kids: dict[int | None, list] = {}
    for node in tree.nodes:
        kids.setdefault(node.parent, []).append(node)

    def walk(node, depth):
        pad = "  " * depth
        if node.level == 0:
            lines.append(f"{pad}level 0: root")
        else:
            val = (f"A={'>=' if node.Asat else ''}{node.A} "
                   f"B={'>=' if node.Bsat else ''}{node.B}")
            cls = node.classification + (f"(d={node.d})" if node.d else "")
            pred = f" -> {node.prediction.describe()}" if node.prediction else ""
            lines.append(f"{pad}level {node.level}: len {node.length} @ {node.rep} "
                         f"[{cls} {val}]{pred}")
        for child in sorted(kids.get(node.id, []), key=lambda c: c.rep):
            walk(child, depth + 1)

    walk(tree.nodes[0], 0)
    lines.append(f"determined: {'yes' if tree.determined else 'no'}")
    if tree.budget_exceeded:
        lines.append("budget exceeded: partial result")
    if tree.bad_reduction_classes:
        lines.append(f"bad reduction at classes (mod p): {tree.bad_reduction_classes}")
    orb = tree.orbits
    confirmed = sorted(orb.confirmed_lengths())
    stable = [f"{s['length']}@{s['level']}" for s in orb.stable_so_far]
    lines.append(f"orbits: confirmed {confirmed}; stable-so-far {stable}; "
                 f"undetermined chains {orb.undetermined_chains}")
    lines.append(f"orbit bound: length <= {orb.bound['maxLength']} "
                 f"({orb.bound['form']}"
                 + ("; length 9 additionally possible" if orb.bound["p3Exception"] else "")
                 + ")")
    return "\n".join(lines) + "\n"


def _json_object(pad: str, keys: list[str], fixed: dict[str, str]) -> str:
    """Indent-2 object at ``pad``: JSON ``fixed[k]`` (%-escaped) as key k's value, else %s."""
    fields = (f'{pad}  {json.dumps(k)}: ' + (fixed[k].replace("%", "%%") if k in fixed else "%s")
              for k in keys)
    return "{\n" + ",\n".join(fields) + f"\n{pad}}}"


def render_json(tree: AnalyzedTree) -> str:
    """``json.dumps(tree.to_dict(), indent=2, sort_keys=True) + "\\n"``, byte for byte, with no
    dict per node.  Only the small frame goes through json's slow indenting encoder.  One
    ``attrgetter`` reads each row's scalars in sorted-key order for one C-encoder call, split
    on NUL (written only escaped).  Each distinct prediction, by value, is rendered once into
    a node template that the rows fill."""
    keys = sorted(probe := tree.nodes[0].to_dict())
    attrs = {k: "classification" if k == "class" else k for k in keys}
    fixed = {k: json.dumps(probe[k]) for k in keys if attrs[k] not in TreeNode.__slots__}
    get = attrgetter(*(attrs[k] for k in keys if k not in fixed and k != "prediction"))
    pred = attrgetter("prediction")
    shapes = dict.fromkeys(map(pred, tree.nodes))  # keyed by value: equal shapes share one
    for shape in shapes:
        text = "null" if shape is None else json.dumps(
            shape.to_dict(), indent=2, sort_keys=True).replace("\n", "\n      ")
        shapes[shape] = "    " + _json_object("    ", keys, {**fixed, "prediction": text})
    flat = json.JSONEncoder(separators=("\x00", ":")).encode(
        list(chain.from_iterable(map(get, tree.nodes))))[1:-1].split("\x00")
    body = ",\n".join(map(shapes.__getitem__, map(pred, tree.nodes))) % tuple(flat)
    head, tail = json.dumps(dataclasses.replace(tree, nodes=[]).to_dict(), indent=2,
                            sort_keys=True).split('\n  "nodes": []')  # one copy of the body
    return f'{head}\n  "nodes": [\n{body}\n  ]{tail}\n'


def render_dot(tree: AnalyzedTree) -> str:
    lines = ["digraph cycletree {"]
    for node in tree.nodes:
        cls = node.classification or "root"
        lines.append(f'  n{node.id} [label="{node.length}@{node.level} [{cls}]"];')
    for node in tree.nodes:
        if node.parent is not None:
            lines.append(f"  n{node.parent} -> n{node.id};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> int:
    tree = analyze(_parse_map(args), args.prime, max_level=args.max_level,
                   budget=args.budget, max_deepen=args.max_deepen)
    render = {"text": render_text, "json": render_json, "dot": render_dot}[args.format]
    sys.stdout.write(render(tree))
    return EXIT_BUDGET if tree.budget_exceeded else EXIT_OK


def cmd_verify(args) -> int:
    p = args.prime
    if args.random:
        if args.poly or args.num or args.den:
            raise ValueError("give either a map or --random N, not both")
        rng = random.Random(args.seed)
        maps = [random_poly(rng, p, args.degree) for _ in range(args.random)]
    else:
        maps = [_parse_map(args)]
    totals: dict[str, list[int]] = {}
    failed = []  # each failing map, then its kept mismatch details
    for fmap in maps:
        report = verify_all(fmap, p, max_level=args.max_level, budget=args.budget)[0]
        for name, stats in report.rules.items():
            agg = totals.setdefault(name, [0, 0])
            agg[0] += stats.checked
            agg[1] += stats.mismatches
        if report.mismatches:
            failed.append(f"mismatches of f = {fmap}:")
            failed += (f"  {line}" for line in report.details)
    for name in sorted(totals):
        c, m = totals[name]
        print(f"{name}: {c} checked, {m} mismatches, {'FAIL' if m else 'pass'}")
    for line in failed:
        print(line)
    mismatches = sum(m for _, m in totals.values())
    print(f"polynomials: {len(maps)}; total mismatches: {mismatches}")
    return EXIT_OK if mismatches == 0 else EXIT_MISMATCH


def _brute_verdicts(args, title: str, criterion, brute) -> int:
    """Print the closed-form verdict at each level 1..levels beside the one
    read off that level's oracle sweep, wherever the oracle allows one."""
    p = args.prime
    f = _parse_map(args)
    print(f"{title} for f = {f}, p = {p}")
    agree = True
    for n in range(1, args.levels + 1):
        verdict = criterion(f, p, n)
        try:
            seen = brute(enumerate_level(f, p, n, budget=args.budget))
        except BudgetExceededError:
            print(f"  n={n}: criterion={verdict} brute=(over budget)")
            continue
        mark = "agree" if seen == verdict else "DISAGREE"
        agree &= seen == verdict
        print(f"  n={n}: criterion={verdict} brute={seen} {mark}")
    return EXIT_OK if agree else EXIT_MISMATCH


def cmd_permcheck(args) -> int:
    return _brute_verdicts(args, "permutation criterion", is_permutation,
                           lambda dec: dec.tail_point_count == 0)


def cmd_cyclecheck(args) -> int:
    return _brute_verdicts(args, "single-cycle criterion", is_single_cycle,
                           lambda dec: len(dec.reps) == 1 and dec.tail_point_count == 0)


def cmd_tails(args) -> int:
    p = args.prime
    f = _parse_map(args)
    stats = tail_analysis(f, p, args.level, args.klass, budget=args.budget)
    print(f"tail analysis for f = {f}, p = {p}, level {args.level}, "
          f"class {args.klass} (cycle rep {stats.cycle_rep})")
    print("fiber size -> count:")
    for size in sorted(stats.preimage_histogram):
        print(f"  {size}: {stats.preimage_histogram[size]}")
    if stats.second_deriv_unit:
        verdict = "matches" if stats.shape_matches else "DIFFERS FROM"
        print(f"closed-form histogram {verdict} observation")
    else:
        print("second derivative vanishes mod p: closed-form shape check skipped")
    bound = tail_bound(p, args.level, stats.cycle_length)
    print(f"max tail length: {stats.max_tail_length} (bound {bound})")
    return EXIT_OK


def cmd_orbits(args) -> int:
    tree = analyze(_parse_map(args), args.prime, max_level=args.max_level,
                   budget=args.budget, max_deepen=args.max_deepen)
    orb = tree.orbits
    confirmed = sorted(orb.confirmed_lengths())
    print(f"confirmed orbit lengths: {confirmed}")
    for chain in orb.confirmed:
        print(f"  length {chain.length}: {chain.kind} chain from level {chain.level}")
    print(f"stable so far: {[(s['length'], s['level']) for s in orb.stable_so_far]}")
    print(f"undetermined chains: {orb.undetermined_chains}")
    print(f"bound: length <= {orb.bound['maxLength']}, {orb.bound['form']}"
          + ("; 9 additionally possible" if orb.bound["p3Exception"] else ""))
    return EXIT_BUDGET if tree.budget_exceeded else EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "analyze": cmd_analyze,
        "verify": cmd_verify,
        "permcheck": cmd_permcheck,
        "cyclecheck": cmd_cyclecheck,
        "tails": cmd_tails,
        "orbits": cmd_orbits,
    }
    try:
        # The prime first, then the budget: the one place either is resolved.
        args.prime = OddPrime(int(args.prime))
        if args.budget is None:
            args.budget = int(os.environ.get("CYCLETREE_BUDGET", DEFAULT_BUDGET))
        if args.budget < 1:
            raise ValueError(f"budget must be a positive number of points, not {args.budget}")
        for flag in ("max_level", "levels", "random", "degree", "max_deepen"):
            if (getattr(args, flag, None) or 0) < 0:
                raise ValueError(f"--{flag.replace('_', '-')} must not be negative")
        return handlers[args.command](args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, CycletreeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
