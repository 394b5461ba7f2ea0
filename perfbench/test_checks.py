"""Each output check of the benchmark accepts a right result and rejects a
wrong one.  Run with `python3 -m pytest perfbench` from the repository root;
it takes about twenty seconds."""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import twistlat  # noqa: E402
import twistlat.cli  # noqa: E402

PIN = ("--fixed-builtin", "u-placement")


def run(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = twistlat.cli.main(["--json", *argv])
    return code, json.loads(buf.getvalue())


def flip_bit(out: dict, a: str, b: str) -> dict:
    witness = dict(out["witness"])
    witness["crossing_bits"] = [
        [x, y, 1 - bit if (x, y) == (a, b) else bit]
        for x, y, bit in witness["crossing_bits"]
    ]
    return dict(out, witness=witness)


@pytest.fixture(scope="module")
def facts():
    f = checks.Facts(twistlat)
    f.check_inputs()
    return f


@pytest.fixture(scope="module")
def pinned_control():
    return run("realize", "check", "--builtin", "curves11", "--genus", "6", *PIN)


def test_independent_computations():
    assert checks.f2_rank([[0, 1], [1, 0]]) == 2
    assert checks.f2_rank([[0, 1, 1], [1, 0, 1], [1, 1, 0]]) == 2
    assert checks.sebastiani_thom_gram(1) == [[0, 1], [-1, 0]]
    t = checks.sebastiani_thom_gram(4)
    assert len(t) == 16 and all(t[i][j] == -t[j][i] for i in range(16) for j in range(16))


def test_gram_check(facts, monkeypatch):
    facts.check_gram()
    wrong = [list(row) for row in twistlat.lattice.gram_matrix(4).gram]
    wrong[0][1], wrong[1][0] = -wrong[0][1], -wrong[1][0]
    monkeypatch.setattr(
        twistlat.lattice, "gram_matrix", lambda k: type("L", (), {"gram": wrong})
    )
    with pytest.raises(checks.CheckFailed, match="T - T"):
        facts.check_gram()


def test_curve_directions(facts):
    """Reversing a curve reverses its visit order and flips its bits; the
    traced surface does not change."""
    u = facts.u_placement
    orders = dict(u.visit_orders)
    orders["a"] = tuple(reversed(orders["a"]))
    flipped = {k: bit ^ ("a" in k) for k, bit in u.bits().items()}
    sub = twistlat.patterns.subpattern(facts.patterns["curves12"], facts.u_labels)
    reversed_a = twistlat.ribbon.make_structure(sub, orders, flipped)
    assert checks.agrees_up_to_directions(reversed_a, u)
    assert twistlat.ribbon.surface_of(sub, reversed_a).components == checks.U_PLACEMENT_SURFACE
    unflipped = twistlat.ribbon.make_structure(sub, orders, u.bits())
    assert not checks.agrees_up_to_directions(unflipped, u)


def test_curves11_reported_at_genus_5_is_rejected(facts):
    code, hit = run("realize", "check", "--builtin", "curves11", "--genus", "4")
    good = {
        "verdict": "exact",
        "genus": 4,
        "witness": hit["witness"],
        "nodes_explored": hit["nodes_explored"],
    }
    facts.min_genus_exact("curves11", code, good)
    with pytest.raises(checks.CheckFailed, match="genus 5, F2 bound is 4"):
        facts.min_genus_exact("curves11", code, dict(good, genus=5))


def test_exceeds_without_exhaustion_is_rejected(facts):
    code, out = run("realize", "check", "--builtin", "curves11", "--genus", "5", *PIN)
    facts.exceeds("curves11", 5, code, out)
    with pytest.raises(checks.CheckFailed, match="without exhaustion"):
        facts.exceeds("curves11", 5, code, dict(out, exhausted=False))
    with pytest.raises(checks.CheckFailed, match="expected exceeds"):
        facts.exceeds("curves11", 5, code, dict(out, realizable=True))


def test_flipped_crossing_bit_is_rejected(facts, pinned_control):
    code, out = pinned_control
    facts.pinned_control("curves11", 6, code, out)
    bad = flip_bit(out, "a", "b")
    with pytest.raises(checks.CheckFailed):
        facts.pinned_control("curves11", 6, code, bad)
    # the comparison with u-placement rejects it on its own, too
    p = facts.patterns["curves11"]
    r = twistlat.ribbon.structure_from_json(bad["witness"])
    _, pinned = twistlat.ribbon.restrict(p, r, facts.u_labels)
    assert not checks.agrees_up_to_directions(pinned, facts.u_placement)


def test_parallel_result_off_by_one_is_rejected(pinned_control):
    _, ref = pinned_control
    _, out = run("realize", "check", "--builtin", "curves11", "--genus", "6", *PIN, "--threads", "2")
    checks.same_as_reference(out, ref)
    with pytest.raises(checks.CheckFailed, match="nodes_explored"):
        checks.same_as_reference(dict(out, nodes_explored=out["nodes_explored"] + 1), ref)
    a, b, _ = next(x for x in out["witness"]["crossing_bits"] if "w+" in x[:2])
    with pytest.raises(checks.CheckFailed, match="witness"):
        checks.same_as_reference(flip_bit(out, a, b), ref)


def test_failing_scoreboard_row_is_rejected(facts):
    code, out = run("verify-paper")
    facts.verify_paper(code, out)
    rows = [dict(row) for row in out["rows"]]
    rows[0]["pass"] = False
    with pytest.raises(checks.CheckFailed, match=rows[0]["name"]):
        facts.verify_paper(1, dict(out, rows=rows, passed=18))


def test_run_fails_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, bench)
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "verify-paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
