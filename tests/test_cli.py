"""CLI tests: output contracts, determinism, exit codes."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from cycletree.arith import IntPoly
from cycletree.cli import main
from cycletree.predictor import analyze


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
