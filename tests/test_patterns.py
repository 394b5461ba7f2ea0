import json

import pytest

from twistlat import (
    InvalidInputError,
    build_gamma,
    f2_genus_lower_bound,
    make_pattern,
    pattern_from_json,
    pattern_from_vertices,
    subpattern,
    validate_pattern,
)
from twistlat.builtin import (
    CURVE_VERTICES,
    builtin_pattern_names,
    derive_pattern,
    load_pattern,
)
from twistlat.patterns import CurvePattern, pattern_to_json_dict, relabel


def f2_rank_oracle(rows):
    """Independent mod-2 elimination."""
    m = [[x % 2 for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                m[r] = [(a + b) % 2 for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def test_make_and_validate():
    p = make_pattern(["x", "y", "z"], [("x", "y"), ("y", "z")])
    assert validate_pattern(p) == []
    assert p.meets("x", "y") and not p.meets("x", "z")
    assert p.crossings() == ((0, 1), (1, 2))
    assert p.degree("y") == 2


def test_validate_rejections():
    p = CurvePattern(curves=("x", "y"), inter=((0, 2), (2, 0)))
    assert any("multiplicity" in msg for msg in validate_pattern(p))
    p = CurvePattern(curves=("x", "y"), inter=((1, 1), (1, 0)))
    assert any("diagonal" in msg for msg in validate_pattern(p))
    p = CurvePattern(curves=("x", "y"), inter=((0, 1), (0, 0)))
    assert any("asymmetry" in msg for msg in validate_pattern(p))
    p = make_pattern(["x", "y", "z"], [("x", "y")])
    assert any("isolated" in msg for msg in validate_pattern(p))
    with pytest.raises(InvalidInputError):
        make_pattern(["x"], [("x", "x")])
    with pytest.raises(InvalidInputError):
        make_pattern(["x"], [("x", "q")])
    # a pair met once is listed once, in either order
    for pairs in ([("x", "y"), ("x", "y")], [("x", "y"), ("y", "x")]):
        with pytest.raises(InvalidInputError, match="listed twice"):
            make_pattern(["x", "y"], pairs)


def test_pattern_from_vertices_matches_edges():
    g = build_gamma(4)
    p = derive_pattern("curves12")
    for a in p.curves:
        for b in p.curves:
            if a == b:
                continue
            assert p.meets(a, b) == g.is_edge(CURVE_VERTICES[a], CURVE_VERTICES[b])
    with pytest.raises(InvalidInputError):
        pattern_from_vertices(g, {"x": (0, 0, 0, 1), "y": (0, 0, 0, 1)})


def test_twelve_curve_shape():
    p = derive_pattern("curves12")
    degrees = {lab: p.degree(lab) for lab in p.curves}
    assert degrees == {
        "a": 4, "b": 3, "c": 5, "d": 4, "e": 5, "f": 3,
        "g": 4, "h": 2, "u": 3, "v": 3, "w+": 6, "w-": 6,
    }
    assert len(p.crossings()) == 24
    assert not p.meets("u", "v")
    assert sorted(x for x in p.curves if p.meets("u", x)) == ["a", "e", "w+"]
    assert sorted(x for x in p.curves if p.meets("w+", x)) == ["a", "b", "c", "d", "e", "u"]
    assert sorted(x for x in p.curves if p.meets("w-", x)) == ["c", "d", "e", "f", "g", "v"]


def test_affine_cycle_pattern_is_8_cycle():
    p = derive_pattern("cycle8")
    order = "abcdefgh"
    for i, x in enumerate(order):
        partners = sorted(y for y in p.curves if p.meets(x, y))
        expect = sorted({order[(i + 1) % 8], order[(i - 1) % 8]})
        assert partners == expect


def test_f2_bounds():
    pair = make_pattern(["x", "y"], [("x", "y")])
    assert f2_genus_lower_bound(pair) == 1
    chain = load_pattern("chain7")
    assert f2_genus_lower_bound(chain) == 3
    twelve = load_pattern("curves12")
    # independent oracle; the mod-2 rank of this matrix is 8 (its rational
    # rank is 10, but ranks over F2 and Q differ here)
    assert f2_rank_oracle(twelve.inter) == 8
    assert f2_genus_lower_bound(twelve) == 4
    for name in builtin_pattern_names():
        p = load_pattern(name)
        assert f2_genus_lower_bound(p) == (f2_rank_oracle(p.inter) + 1) // 2


def test_builtin_files_match_edge_rule():
    for name in builtin_pattern_names():
        assert load_pattern(name).inter == derive_pattern(name).inter


def test_components_and_subpattern():
    p = make_pattern(
        ["a", "b", "c", "d"], [("a", "b"), ("c", "d")]
    )
    assert p.components() == ((0, 1), (2, 3))
    sub = subpattern(p, ["a", "b", "c"])
    assert sub.curves == ("a", "b")  # c became isolated and was dropped


def test_relabel():
    p = make_pattern(["x", "y"], [("x", "y")])
    q = relabel(p, {"x": "alpha"})
    assert q.curves == ("alpha", "y")
    assert q.inter == p.inter
    with pytest.raises(InvalidInputError):
        relabel(p, {"x": "y"})


def test_json_roundtrip_bit_identical():
    p = load_pattern("curves12")
    text = json.dumps(pattern_to_json_dict(p), sort_keys=True)
    p2 = pattern_from_json(text)
    assert json.dumps(pattern_to_json_dict(p2), sort_keys=True) == text
    assert p2.inter == p.inter
    with pytest.raises(InvalidInputError):
        pattern_from_json(json.dumps({"curves": ["a"]}))
