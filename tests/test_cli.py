"""CLI tests: output contracts, determinism, exit codes."""

import ast
import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycletree.arith import IntPoly
from cycletree.checkers import RationalMap
from cycletree.cli import main, render_json
from cycletree.graph import distance_to_cycle, enumerate_level
from cycletree.predictor import (AnalyzedTree, OrbitChain, OrbitReport, PredictedShape,
                                 Scope, ShapeKind, TreeNode, UndeterminedReason, analyze,
                                 orbit_bound_statement)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_text(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--prime", "3",
                           "--poly", "2,1,3,1,3,2", "--max-level", "8")
    assert code == 0
    assert "determined: yes" in out
    assert "confirmed [9]" in out
    assert out.endswith("\n")


PARTIAL_SPLIT_TEXT = {
    # d = 2 and m = ord_5(4^2 - 1) = 1, certified by the level-2 kd-lifts
    4: """\
map: 4x  (p = 5)
level 0: root
  level 1: len 1 @ 0 [partially-splits(d=2) A=0 B=>=1] -> stationary partial split (d=2, kd-lifts split 0x then grow)
    level 2: len 1 @ 0 [partially-splits(d=2) A=0 B=>=2] -> stationary partial split (d=2, kd-lifts split 0x then grow)
    level 2: len 2 @ 5 [grows A=1 B=0] -> grows forever
    level 2: len 2 @ 10 [grows A=1 B=0] -> grows forever
  level 1: len 2 @ 1 [grows A=>=1 B=0] -> grows forever
  level 1: len 2 @ 2 [grows A=>=1 B=0] -> grows forever
determined: yes
orbits: confirmed [1]; stable-so-far []; undetermined chains 0
orbit bound: length <= 25 (k*r with k <= 5 and r dividing 4)
""",
    # no kd-lift is examined, so m stays uncertified
    1: """\
map: 4x  (p = 5)
level 0: root
  level 1: len 1 @ 0 [partially-splits(d=2) A=0 B=>=1] -> stationary partial split (d=2)
  level 1: len 2 @ 1 [grows A=>=1 B=0] -> grows forever
  level 1: len 2 @ 2 [grows A=>=1 B=0] -> grows forever
determined: no
orbits: confirmed [1]; stable-so-far []; undetermined chains 0
orbit bound: length <= 25 (k*r with k <= 5 and r dividing 4)
""",
}


@pytest.mark.parametrize("max_level", sorted(PARTIAL_SPLIT_TEXT))
def test_analyze_text_partial_split(capsys, max_level):
    code, out, _ = run_cli(capsys, "analyze", "--prime", "5", "--poly", "0,4",
                           "--max-level", str(max_level))
    assert code == 0
    assert out == PARTIAL_SPLIT_TEXT[max_level]


def test_analyze_json_schema_and_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--prime", "3",
                           "--poly", "2,1,3,1,3,2", "--max-level", "8",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    for key in ("prime", "poly", "maxLevel", "determined", "nodes", "orbits"):
        assert key in data
    assert data["prime"] == 3
    assert data["poly"] == [2, 1, 3, 1, 3, 2]
    for node in data["nodes"]:
        for key in ("id", "parent", "level", "length", "rep", "class",
                    "A", "B", "Asat", "Bsat", "d", "prediction"):
            assert key in node
    for key in ("confirmed", "stableSoFar", "bound"):
        assert key in data["orbits"]
    assert 9 in [c["length"] for c in data["orbits"]["confirmed"]]


def assert_renders_as_stock_encoder(tree) -> str:
    """render_json(tree) must equal the stock indented encoder's output; a
    mismatch names the first differing line, not a diff of the whole tree."""
    got = render_json(tree)
    want = json.dumps(tree.to_dict(), indent=2, sort_keys=True) + "\n"
    same = got == want
    if not same:
        pairs = zip(got.splitlines() + [None], want.splitlines() + [None])
        line, (g, w) = next((i, gw) for i, gw in enumerate(pairs, 1) if gw[0] != gw[1])
    assert same, f"line {line}: render_json wrote {g!r}, the stock encoder {w!r}"
    return got


def test_render_json_readme_quintic():
    tree = analyze(IntPoly([2, 1, 3, 1, 3, 2]), 3, max_level=8)
    assert_renders_as_stock_encoder(tree)


def test_render_json_identity_reps_beyond_64_bits():
    tree = analyze(IntPoly([0, 1]), 5, max_level=28, max_deepen=5)
    assert max(node.rep for node in tree.nodes) >= 2**64
    assert_renders_as_stock_encoder(tree)


def test_render_json_rational_map_with_poles():
    """The "poly" field nests {num, den}; the poles are listed in
    badReductionClasses."""
    for num, den, p, poles in (([1, 0, 1], [0, 1], 3, [0]), ([1, 2, 0, 1], [3, 0, 1], 7, [2, 5])):
        tree = analyze(RationalMap(IntPoly(num), IntPoly(den)), p, max_level=6)
        assert tree.bad_reduction_classes == poles
        data = json.loads(assert_renders_as_stock_encoder(tree))
        assert data["poly"] == {"num": num, "den": den}


def test_render_json_budget_exceeded():
    tree = analyze(IntPoly([2, 1, 3, 1, 3, 2]), 3, max_level=8, budget=50)
    assert tree.budget_exceeded
    assert_renders_as_stock_encoder(tree)


def test_render_json_every_shape_kind():
    """One node per ShapeKind, every prediction field set somewhere, and
    strings that need escaping (a NUL, a quote, non-ASCII)."""
    shapes = [PredictedShape(ShapeKind.GROWS_FOREVER),
              PredictedShape(ShapeKind.SPLITS_THEN_GROWS, splits=2, scope=Scope.ALL),
              PredictedShape(ShapeKind.SPLITS_THEN_GROWS, splits=1, scope=Scope.ALL_BUT_ONE),
              PredictedShape(ShapeKind.STATIONARY_PARTIAL_SPLIT, d=2, m=3),
              PredictedShape(ShapeKind.TAILS_FOREVER, tail_bound=7),
              PredictedShape(ShapeKind.GROWS_THEN_SPLITS),
              *(PredictedShape(ShapeKind.UNDETERMINED, beyond_level=8, reason=reason)
                for reason in UndeterminedReason)]
    assert {s.kind for s in shapes} == set(ShapeKind)
    root = TreeNode(0, None, 0, 1, 0, None, None, None, None, None, None, None)
    nodes = [root] + [
        TreeNode(i, 0, i, 3**i, 5**40 + i, cls, i % 3 or None, i, 40 - i, i % 2 == 0,
                 i % 2 == 1, shape)
        for i, (shape, cls) in enumerate(
            zip(shapes, ["grows", "splits", 'q"uote', "nul\x00here", "caf\u00e9",
                         "tails", "partial", "grows", "splits"]), start=1)]
    # Equal shapes that are distinct objects (sharing one template), a non-root
    # node with no prediction, and a "%" in a prediction value and in a class.
    twins = [PredictedShape(ShapeKind.SPLITS_THEN_GROWS, splits=4, scope=Scope.ALL)
             for _ in range(2)]
    assert twins[0] == twins[1] and twins[0] is not twins[1]
    extra = [*twins, None, PredictedShape(ShapeKind.SPLITS_THEN_GROWS, splits="50%s%%")]
    nodes += [TreeNode(len(nodes) + i, 1, 2, 9, 7 + i, "100%", None, 1, 2, False, False, shape)
              for i, shape in enumerate(extra)]
    orbits = OrbitReport([OrbitChain(9, "partial-split", 4, 12)],
                         [{"length": 3, "level": 30}], 2, orbit_bound_statement(3))
    tree = AnalyzedTree(3, {"num": [1, 0, 1], "den": [0, 1]}, 30, 10**7, False, True,
                        nodes, orbits, [0, 2])
    before = tree.to_dict()
    out = assert_renders_as_stock_encoder(tree)
    assert "\x00" not in out and json.loads(out)["nodes"][4]["class"] == "nul\x00here"
    assert tree.nodes is nodes and tree.to_dict() == before  # the tree is left untouched
    assert [n["prediction"] for n in json.loads(out)["nodes"][-4:-1]] == [
        twins[0].to_dict(), twins[0].to_dict(), None]


def test_render_json_root_only_tree(capsys):
    """A rational map whose level-1 orbits all meet a pole has no level-1
    cycle, so the tree is the root alone: the renderer's probe is the root."""
    tree = analyze(RationalMap(IntPoly([1, 1]), IntPoly([0, 1])), 3)
    assert len(tree.nodes) == 1 and tree.determined
    data = json.loads(assert_renders_as_stock_encoder(tree))
    assert data["determined"] is True and data["badReductionClasses"] == [0]
    code, out, _ = run_cli(capsys, "analyze", "--prime", "3", "--num", "1,1", "--den", "0,1",
                           "--format", "json")
    assert code == 0 and out == render_json(tree)


def test_render_json_large_near_identity_tree():
    """x + 3^10 (x^2 + x^3): thousands of nodes that share a few shapes, so
    each shape's template is filled by many rows."""
    tree = analyze(IntPoly([0, 1, 3**10, 3**10]), 3, max_level=30)
    assert len(tree.nodes) >= 1000
    assert len({node.prediction for node in tree.nodes}) <= 20
    assert_renders_as_stock_encoder(tree)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 5, 7]), st.lists(st.integers(-50, 50), min_size=2, max_size=5),
       st.integers(1, 6))
def test_render_json_matches_stock_encoder(p, coeffs, max_level):
    tree = analyze(IntPoly(coeffs), p, max_level=max_level)
    assert_renders_as_stock_encoder(tree)


def test_analyze_dot_structure(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--prime", "3",
                           "--poly", "2,1,3,1,3,2", "--max-level", "8",
                           "--format", "dot")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "digraph cycletree {"
    assert lines[-1] == "}"
    node_re = re.compile(r'^  n(\d+) \[label="\d+@\d+ \[[a-z-]+\]"\];$')
    edge_re = re.compile(r"^  n(\d+) -> n(\d+);$")
    nodes, edges = set(), []
    for line in lines[1:-1]:
        m = node_re.match(line)
        if m:
            nodes.add(int(m.group(1)))
            continue
        m = edge_re.match(line)
        assert m, f"unparseable dot line: {line!r}"
        edges.append((int(m.group(1)), int(m.group(2))))
    # one node per cycle, one edge per lift
    code2, json_out, _ = run_cli(capsys, "analyze", "--prime", "3",
                                 "--poly", "2,1,3,1,3,2", "--max-level", "8",
                                 "--format", "json")
    data = json.loads(json_out)
    assert len(nodes) == len(data["nodes"])
    assert len(edges) == len(data["nodes"]) - 1
    for src, dst in edges:
        assert src in nodes and dst in nodes


def test_determinism_and_threads(capsys):
    args = ("analyze", "--prime", "5", "--poly", "3,2,0,1", "--format", "json")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_identity_not_determined(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--prime", "5", "--poly", "0,1")
    assert code == 0
    assert "determined: no" in out


def test_rational_analyze(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--prime", "3",
                           "--num", "1,0,1", "--den", "0,1", "--max-level", "4")
    assert code == 0
    assert "bad reduction at classes (mod p): [0]" in out


def test_parse_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "analyze", "--prime", "3", "--poly", "2,x,3")
    assert code == 2
    assert "error" in err


def test_not_a_prime_exit_2(capsys):
    code, _, err = run_cli(capsys, "analyze", "--prime", "9", "--poly", "1,1")
    assert code == 2
    code, _, err = run_cli(capsys, "analyze", "--prime", "2", "--poly", "1,1")
    assert code == 2


def test_budget_exit_3(capsys):
    code, _, err = run_cli(capsys, "verify", "--prime", "5", "--poly", "1,1",
                           "--budget", "3")
    assert code == 3


def test_analyze_budget_counts_map_evaluations(capsys):
    """Each expansion costs k*p work units, the k*p map evaluations it makes:
    a budget of exactly their sum W is enough, W - 1 is not."""
    f = IntPoly([2, 1, 3, 1, 3, 2])
    full = analyze(f, 3, max_level=8)
    parents = {node.parent for node in full.nodes}
    work = sum(node.length * 3 for node in full.nodes if node.level >= 1 and node.id in parents)
    assert work == 90 and not full.budget_exceeded
    exact = analyze(f, 3, max_level=8, budget=work)
    assert not exact.budget_exceeded
    assert [n.to_dict() for n in exact.nodes] == [n.to_dict() for n in full.nodes]
    assert analyze(f, 3, max_level=8, budget=work - 1).budget_exceeded
    code, out, _ = run_cli(capsys, "analyze", "--prime", "3", "--poly", "2,1,3,1,3,2",
                           "--max-level", "8", "--budget", str(work - 1), "--format", "json")
    assert code == 3
    assert json.loads(out)["budgetExceeded"] is True


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("CYCLETREE_BUDGET", "3")
    code, _, _ = run_cli(capsys, "verify", "--prime", "5", "--poly", "1,1")
    assert code == 3


def test_verify_clean_exit_0(capsys):
    code, out, _ = run_cli(capsys, "verify", "--prime", "3",
                           "--poly", "2,1,3,1,3,2", "--max-level", "6")
    assert code == 0
    assert "total mismatches: 0" in out


def test_verify_rational_map_with_pole(capsys):
    """verify takes --num/--den as analyze does: x + 1/x, with a pole at 0."""
    code, out, _ = run_cli(capsys, "verify", "--prime", "3", "--num", "1,0,1",
                           "--den", "0,1", "--max-level", "8")
    assert code == 0
    rules = [line.split(":")[0] for line in out.splitlines()[:-1]]
    assert {"prefix", "chain-congruence", "lift-length-law", "tail-bound"} <= set(rules)
    assert all(line.endswith(", 0 mismatches, pass") for line in out.splitlines()[:-1])
    assert out.splitlines()[-1] == "polynomials: 1; total mismatches: 0"


def test_verify_oracle_off_the_map_exit_1(capsys, monkeypatch):
    """An oracle orbit that does not follow the map is a chain-congruence mismatch,
    reported with every rule, not a broken invariant: (1 + 3x + x^2)/x agrees with
    x + 1/x mod 3 only."""
    from cycletree.checkers import InverseEvalMap
    from cycletree.verify import verify_all

    monkeypatch.setattr(RationalMap, "oracle_map",
                        lambda self: InverseEvalMap(IntPoly([1, 3, 1]), IntPoly([0, 1])))
    code, out, _ = run_cli(capsys, "verify", "--prime", "3", "--num", "1,0,1",
                           "--den", "0,1", "--max-level", "8")
    assert code == 1
    assert "chain-congruence: 1 checked, 1 mismatches, FAIL" in out.splitlines()
    assert "prefix: 2 checked, 0 mismatches, pass" in out.splitlines()
    assert out.splitlines()[-3:] == [
        "mismatches of f = (1 + x^2)/(x):",
        "  chain-congruence: orbit of rep=1@2 does not follow the map",
        "polynomials: 1; total mismatches: 1"]
    report = verify_all(RationalMap(IntPoly([1, 0, 1]), IntPoly([0, 1])), 3, max_level=8)[0]
    assert report.details == ["chain-congruence: orbit of rep=1@2 does not follow the map"]


def test_verify_random_sweep(capsys):
    code, out, _ = run_cli(capsys, "verify", "--prime", "5", "--random", "5",
                           "--degree", "4", "--max-level", "4", "--seed", "42")
    assert code == 0
    assert "polynomials: 5" in out


def test_verify_corruption_exit_1(capsys, monkeypatch):
    import cycletree.predictor as predictor_mod
    from cycletree.predictor import PredictedShape, ShapeKind

    real = predictor_mod.predict

    def corrupted(fmap, p, node):
        shape = real(fmap, p, node)
        if shape.kind is ShapeKind.GROWS_FOREVER:
            return PredictedShape(ShapeKind.TAILS_FOREVER, tail_bound=0)
        return shape

    monkeypatch.setattr(predictor_mod, "predict", corrupted)
    code, out, _ = run_cli(capsys, "verify", "--prime", "3",
                           "--poly", "1,1", "--max-level", "5")
    assert code == 1
    assert "FAIL" in out


def test_permcheck(capsys):
    code, out, _ = run_cli(capsys, "permcheck", "--prime", "7",
                           "--poly", "0,1,0,0,0,0,0,1")
    assert code == 0
    assert out.count("agree") == 3


def test_cyclecheck(capsys):
    code, out, _ = run_cli(capsys, "cyclecheck", "--prime", "5", "--poly", "1,1")
    assert code == 0
    assert "DISAGREE" not in out


def test_brute_verdicts_on_the_identity(capsys):
    """The identity has p^n fixed points at level n: a permutation at every
    level and a single cycle at none, by criterion and by the oracle alike."""
    for command, verdict in (("cyclecheck", False), ("permcheck", True)):
        code, out, _ = run_cli(capsys, command, "--prime", "5", "--poly", "0,1",
                               "--levels", "6")
        assert code == 0
        assert out.splitlines()[1:] == [
            f"  n={n}: criterion={verdict} brute={verdict} agree" for n in range(1, 7)]


def test_tails_command(capsys):
    code, out, _ = run_cli(capsys, "tails", "--prime", "5", "--poly", "0,0,1",
                           "--level", "4", "--class", "0")
    assert code == 0
    assert "10: 10" in out
    assert "25: 1" in out
    assert "matches observation" in out


def test_tails_maximum_runs_over_the_class_cycle_not_the_basin(capsys):
    # f = 8 + 6x^2 mod 9 sends 0 -> 8 -> 5 and fixes 5: a tail of 2 into the cycle over
    # class 2, which tails reports as 1, the longest over the residues 2, 5 and 8.
    code, out, _ = run_cli(capsys, "tails", "--prime", "3", "--poly", "8,0,6",
                           "--level", "2", "--class", "2")
    assert code == 0
    assert "max tail length: 1 (bound 3)" in out
    sw = enumerate_level(IntPoly([8, 0, 6]), 3, 2)
    dist, owner = distance_to_cycle(sw)
    assert (dist[0], owner[0]) == (2, sw.labels[5])


def test_orbits_command(capsys):
    code, out, _ = run_cli(capsys, "orbits", "--prime", "3",
                           "--poly", "2,1,3,1,3,2")
    assert code == 0
    assert "confirmed orbit lengths: [9]" in out


README = Path(__file__).resolve().parents[1] / "README.md"
README_GOLDEN = Path(__file__).with_name("readme_cli_golden.json")


def readme_commands() -> list[str]:
    """Every ``cycletree ...`` line of the README, comments stripped."""
    lines = (line.split("#", 1)[0].strip() for line in README.read_text().splitlines())
    return [line for line in lines if line.startswith("cycletree ")]


def run_readme_command(command: str) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(shlex.split(command)[1:])
    return {"command": command, "exit": code, "stdout": buf.getvalue()}


def test_readme_examples_golden():
    """The README's CLI examples print exactly what was recorded in
    readme_cli_golden.json (regenerate it only for an intended change)."""
    golden = json.loads(README_GOLDEN.read_text())
    assert [run_readme_command(c) for c in readme_commands()] == golden


def test_readme_library_sketch():
    """The README's "Library sketch" block runs, and its bare expressions
    evaluate to what their comments say: {9}, then True."""
    text = README.read_text().split("## Library sketch", 1)[1]
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    values = []
    for statement in ast.parse(block).body:
        if isinstance(statement, ast.Expr):
            values.append(eval(compile(ast.Expression(statement.value), "README", "eval"),
                               namespace))
        else:
            exec(compile(ast.Module([statement], []), "README", "exec"), namespace)
    assert values == [{9}, True]


def test_out_of_range_numbers_exit_2(capsys, monkeypatch):
    """A budget below 1 (from --budget or CYCLETREE_BUDGET) and a negative
    --max-level, --levels, --random, --degree or --max-deepen are usage errors,
    and so is verify's --random N with a map; an invalid prime is still the
    error reported first."""
    verify = ["verify", "--prime", "5", "--poly", "1,1"]
    cases = [verify + ["--budget", "0"], verify + ["--budget", "-5"],
             verify + ["--max-level", "-1"], ["verify", "--prime", "3", "--random", "-3"],
             ["analyze", "--prime", "3", "--poly", "1,1", "--max-level", "-2"],
             ["permcheck", "--prime", "3", "--poly", "1,1", "--levels", "-1"],
             ["verify", "--prime", "5", "--random", "2", "--degree", "-3"],
             ["analyze", "--prime", "3", "--poly", "1,1", "--max-deepen", "-2"],
             ["verify", "--prime", "3", "--random", "2", "--poly", "1,1"]]
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: "), argv
    code, _, err = run_cli(capsys, "verify", "--prime", "4", "--poly", "1,1", "--budget", "0")
    assert code == 2 and "not an odd prime" in err
    monkeypatch.setenv("CYCLETREE_BUDGET", "0")
    code, _, err = run_cli(capsys, *verify)
    assert code == 2 and "budget" in err
