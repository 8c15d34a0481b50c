"""CLI tests: output contracts, determinism, exit codes."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cycletree.arith import IntPoly
from cycletree.checkers import RationalMap
from cycletree.cli import main, render_json
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
    badReductionClasses.  (badReduction: true is in the hand-built tree below.)"""
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
    """One node per ShapeKind, every prediction field set somewhere, bad
    reduction, and strings that need escaping (a NUL, a quote, non-ASCII)."""
    shapes = [PredictedShape(ShapeKind.GROWS_FOREVER),
              PredictedShape(ShapeKind.SPLITS_THEN_GROWS, splits=2, scope=Scope.ALL),
              PredictedShape(ShapeKind.SPLITS_THEN_GROWS, splits=1, scope=Scope.ALL_BUT_ONE),
              PredictedShape(ShapeKind.STATIONARY_PARTIAL_SPLIT, d=2, m=3),
              PredictedShape(ShapeKind.TAILS_FOREVER, tail_bound=7),
              PredictedShape(ShapeKind.GROWS_THEN_SPLITS),
              *(PredictedShape(ShapeKind.UNDETERMINED, beyond_level=8, reason=reason,
                               split_known_until=8) for reason in UndeterminedReason)]
    assert {s.kind for s in shapes} == set(ShapeKind)
    root = TreeNode(0, None, 0, 1, 0, None, None, None, None, None, None, None)
    nodes = [root] + [
        TreeNode(i, 0, i, 3**i, 5**40 + i, cls, i % 3 or None, i, 40 - i, i % 2 == 0,
                 i % 2 == 1, shape, bad_reduction=i == 3)
        for i, (shape, cls) in enumerate(
            zip(shapes, ["grows", "splits", 'q"uote', "nul\x00here", "caf\u00e9",
                         "tails", "partial", "grows", "splits"]), start=1)]
    orbits = OrbitReport([OrbitChain(9, "partial-split", 4, 12)],
                         [{"length": 3, "level": 30}], 2, orbit_bound_statement(3))
    tree = AnalyzedTree(3, {"num": [1, 0, 1], "den": [0, 1]}, 30, 10**7, False, True,
                        nodes, orbits, [0, 2])
    out = assert_renders_as_stock_encoder(tree)
    assert "\x00" not in out and json.loads(out)["nodes"][4]["class"] == "nul\x00here"


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


def test_verify_random_sweep(capsys):
    code, out, _ = run_cli(capsys, "verify", "--prime", "5", "--random", "5",
                           "--degree", "4", "--max-level", "4", "--seed", "42")
    assert code == 0
    assert "polynomials: 5" in out


def test_verify_corruption_exit_1(capsys, monkeypatch):
    import cycletree.predictor as predictor_mod
    from cycletree.predictor import PredictedShape, ShapeKind

    real = predictor_mod.predict

    def corrupted(fmap, p, node, parent=None):
        shape = real(fmap, p, node, parent)
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


def test_tails_command(capsys):
    code, out, _ = run_cli(capsys, "tails", "--prime", "5", "--poly", "0,0,1",
                           "--level", "4", "--class", "0")
    assert code == 0
    assert "10: 10" in out
    assert "25: 1" in out
    assert "matches observation" in out


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
