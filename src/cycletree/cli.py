"""Command-line front end.

Exit codes: 0 ok, 1 verification mismatch, 2 usage/parse error, 3 budget
exceeded, 4 broken internal invariant (InvariantError).  Output formats: text
(default), json, dot.  The point budget defaults to 10^7 and can be overridden
with --budget or CYCLETREE_BUDGET.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from operator import itemgetter

from .arith import IntPoly, OddPrime
from .checkers import RationalMap, is_permutation, is_single_cycle
from .errors import BudgetExceededError, CycletreeError, InvariantError
from .graph import DEFAULT_BUDGET, _sweep_level, tail_analysis
from .predictor import AnalyzedTree, PredictedShape, ShapeKind, analyze
from .verify import random_poly, verify_all

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INVARIANT = 4


def _default_budget() -> int:
    return int(os.environ.get("CYCLETREE_BUDGET", DEFAULT_BUDGET))


def _add_common(sub: argparse.ArgumentParser, rational: bool = False):
    sub.add_argument("--prime", "-p", required=True, help="odd prime p")
    sub.add_argument("--poly", required=not rational,
                     help="comma-separated coefficients, constant first")
    if rational:
        sub.add_argument("--num", help="numerator coefficients (rational map)")
        sub.add_argument("--den", help="denominator coefficients (rational map)")
    sub.add_argument("--budget", type=int, default=None,
                     help="point budget (default: CYCLETREE_BUDGET or 10^7)")


def _parse_prime(text: str) -> OddPrime:
    return OddPrime(int(text))


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
    ver.add_argument("--prime", "-p", required=True)
    ver.add_argument("--poly", help="single polynomial to verify")
    ver.add_argument("--random", type=int, default=0, metavar="N",
                     help="verify N random polynomials instead")
    ver.add_argument("--degree", type=int, default=5)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--max-level", type=int, default=None)
    ver.add_argument("--budget", type=int, default=None)

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
            bad = " [bad reduction]" if node.bad_reduction else ""
            lines.append(f"{pad}level {node.level}: len {node.length} @ {node.rep} "
                         f"[{cls} {val}]{pred}{bad}")
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


def _json_object(pad: str, keys: list[str], prediction: str = "%s") -> str:
    """Indent-2 object at indent ``pad``: %s per value, ``prediction`` as that key's."""
    fields = (f'{pad}  {json.dumps(k)}: ' + (prediction if k == "prediction" else "%s")
              for k in keys)
    return "{\n" + ",\n".join(fields) + f"\n{pad}}}"


def render_json(tree: AnalyzedTree) -> str:
    """``json.dumps(tree.to_dict(), indent=2, sort_keys=True) + "\\n"``, byte for byte.
    Any ``indent`` sends json to its slow pure-Python encoder, so only the small frame goes
    through it; each node fills a template of the sorted ``to_dict`` keys with values
    the C encoder writes in one call, split on NUL, which it writes only escaped."""
    out = tree.to_dict()
    rows, out["nodes"] = out["nodes"], None
    keys, pkeys = sorted(rows[0]), sorted(PredictedShape(ShapeKind.UNDETERMINED).to_dict())
    cut, get, pget = keys.index("prediction"), itemgetter(*keys), itemgetter(*pkeys)
    bare = "    " + _json_object("    ", keys)
    full = "    " + _json_object("    ", keys, _json_object("      ", pkeys))
    flat, shapes = [], []
    for vals in map(get, rows):
        pred = vals[cut]
        flat += vals if pred is None else vals[:cut] + pget(pred) + vals[cut + 1:]
        shapes.append(bare if pred is None else full)
    flat = tuple(json.JSONEncoder(separators=("\x00", ":")).encode(flat)[1:-1].split("\x00"))
    nodes = '\n  "nodes": [\n' + ",\n".join(shapes) % flat + "\n  ]"
    return json.dumps(out, indent=2, sort_keys=True).replace('\n  "nodes": null', nodes, 1) + "\n"


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
    p = _parse_prime(args.prime)
    fmap = _parse_map(args)
    budget = args.budget or _default_budget()
    tree = analyze(fmap, p, max_level=args.max_level, budget=budget,
                   max_deepen=args.max_deepen)
    render = {"text": render_text, "json": render_json, "dot": render_dot}[args.format]
    sys.stdout.write(render(tree))
    return EXIT_BUDGET if tree.budget_exceeded else EXIT_OK


def _verify_one(fmap, p, budget, max_level) -> tuple[int, int, dict]:
    report, _ = verify_all(fmap, p, max_level=max_level, budget=budget)
    return report.checked, report.mismatches, {
        name: (s.checked, s.mismatches) for name, s in report.rules.items()}


def cmd_verify(args) -> int:
    p = _parse_prime(args.prime)
    budget = args.budget or _default_budget()
    max_level = args.max_level
    polys = []
    if args.random:
        rng = random.Random(args.seed)
        polys = [random_poly(rng, p, args.degree) for _ in range(args.random)]
    elif args.poly:
        polys = [IntPoly.parse(args.poly)]
    else:
        raise ValueError("verify needs --poly or --random N")
    totals: dict[str, list[int]] = {}
    grand_mismatches = 0
    for fmap in polys:
        checked, mismatches, rules = _verify_one(fmap, p, budget, max_level)
        grand_mismatches += mismatches
        for name, (c, m) in rules.items():
            agg = totals.setdefault(name, [0, 0])
            agg[0] += c
            agg[1] += m
    for name in sorted(totals):
        c, m = totals[name]
        print(f"{name}: {c} checked, {m} mismatches, {'FAIL' if m else 'pass'}")
    print(f"polynomials: {len(polys)}; total mismatches: {grand_mismatches}")
    return EXIT_OK if grand_mismatches == 0 else EXIT_MISMATCH


def _brute_verdicts(args, title: str, criterion, brute) -> int:
    """Print the closed-form verdict at each level 1..levels beside the one
    read off that level's oracle sweep, wherever the oracle allows one."""
    p = _parse_prime(args.prime)
    f = _parse_map(args)
    budget = args.budget or _default_budget()
    print(f"{title} for f = {f}, p = {p}")
    agree = True
    for n in range(1, args.levels + 1):
        verdict = criterion(f, p, n)
        try:
            seen = brute(_sweep_level(f, p, n, budget))
        except BudgetExceededError:
            print(f"  n={n}: criterion={verdict} brute=(over budget)")
            continue
        mark = "agree" if seen == verdict else "DISAGREE"
        agree &= seen == verdict
        print(f"  n={n}: criterion={verdict} brute={seen} {mark}")
    return EXIT_OK if agree else EXIT_MISMATCH


def cmd_permcheck(args) -> int:
    return _brute_verdicts(args, "permutation criterion", is_permutation,
                           lambda sweep: sweep.tail_point_count == 0)


def cmd_cyclecheck(args) -> int:
    return _brute_verdicts(args, "single-cycle criterion", is_single_cycle,
                           lambda sweep: sweep.lengths == [sweep.modulus])


def cmd_tails(args) -> int:
    p = _parse_prime(args.prime)
    f = _parse_map(args)
    budget = args.budget or _default_budget()
    stats = tail_analysis(f, p, args.level, args.klass, budget=budget)
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
    bound = p + (args.level - 2) * stats.cycle_length
    print(f"max tail length: {stats.max_tail_length} (bound {bound})")
    return EXIT_OK


def cmd_orbits(args) -> int:
    p = _parse_prime(args.prime)
    fmap = _parse_map(args)
    budget = args.budget or _default_budget()
    tree = analyze(fmap, p, max_level=args.max_level, budget=budget,
                   max_deepen=args.max_deepen)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "analyze": cmd_analyze,
        "verify": cmd_verify,
        "permcheck": cmd_permcheck,
        "cyclecheck": cmd_cyclecheck,
        "tails": cmd_tails,
        "orbits": cmd_orbits,
    }
    try:
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
