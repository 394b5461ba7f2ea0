import itertools
import json
import random

import pytest

from twistlat import (
    InvalidInputError,
    enumerate_structures,
    make_pattern,
    make_structure,
    naive_min_genus,
    reflect,
    restrict,
    structure_from_json,
    surface_of,
)
from twistlat.builtin import load_pattern
from twistlat.ribbon import RibbonStructure, structure_to_json_dict, validate_structure


def pair_pattern():
    return make_pattern(["x", "y"], [("x", "y")])


def chain_pattern(n=7):
    labs = [chr(ord("a") + i) for i in range(n)]
    return make_pattern(labs, [(labs[i], labs[i + 1]) for i in range(n - 1)])


def test_two_curves_fill_one_holed_torus():
    p = pair_pattern()
    for bit in (0, 1):
        r = make_structure(p, {"x": ["y"], "y": ["x"]}, {("x", "y"): bit})
        s = surface_of(p, r)
        assert s.components == ((-1, 1, 1),)


def test_chain_every_structure_is_sigma_3_2():
    p = chain_pattern(7)
    count = 0
    for r in enumerate_structures(p):
        s = surface_of(p, r)
        assert s.components == ((-6, 2, 3),)
        count += 1
    assert count == 64  # one cyclic order each, 2^6 bit choices


def test_chain_planar_bits_structure():
    p = chain_pattern(7)
    orders = {lab: sorted(p.curves[j] for j in p.neighbors(p.index(lab))) for lab in p.curves}
    bits = {tuple(sorted((p.curves[i], p.curves[j]))): 0 for i, j in p.crossings()}
    s = surface_of(p, make_structure(p, orders, bits))
    assert s.components == ((-6, 2, 3),)


def test_cycle_euler_identity():
    p = load_pattern("cycle8")
    for r in itertools.islice(enumerate_structures(p), 40):
        s = surface_of(p, r)
        assert s.euler_characteristic == -8
        assert 2 * s.total_genus + s.boundary_count == 10


def test_reflection_invariance():
    p = chain_pattern(5)
    rng = random.Random(9)
    structs = list(enumerate_structures(p))
    for r in rng.sample(structs, 6):
        assert surface_of(p, r).components == surface_of(p, reflect(r)).components


def test_bit_flip_is_mirror():
    p = pair_pattern()
    r = make_structure(p, {"x": ["y"], "y": ["x"]}, {("x", "y"): 0})
    m = reflect(r)
    assert dict(m.bits()) == {("x", "y"): 1}


def test_rotation_of_visit_cycle_is_irrelevant():
    p = chain_pattern(4)
    orders = {"a": ["b"], "b": ["a", "c"], "c": ["b", "d"], "d": ["c"]}
    bits = {k: 1 for k in [("a", "b"), ("b", "c"), ("c", "d")]}
    r1 = make_structure(p, orders, bits)
    orders2 = dict(orders)
    orders2["b"] = ["c", "a"]  # same cyclic order, different anchor
    r2 = make_structure(p, orders2, bits)
    assert surface_of(p, r1).components == surface_of(p, r2).components
    # canonicalization anchors at the lowest partner either way
    assert r1.canonical() == r2.canonical()


def test_validate_structure_failures():
    p = chain_pattern(3)
    good_orders = {"a": ["b"], "b": ["a", "c"], "c": ["b"]}
    good_bits = {("a", "b"): 0, ("b", "c"): 0}
    r = make_structure(p, good_orders, good_bits)
    assert validate_structure(p, r) == []
    bad = make_structure(p, {"a": ["b"], "b": ["a", "a"], "c": ["b"]}, good_bits)
    assert validate_structure(p, bad)
    bad2 = RibbonStructure(
        r.visit_orders, tuple([("a", "b", 0)])
    )
    assert validate_structure(p, bad2)
    with pytest.raises(InvalidInputError):
        surface_of(p, bad2)


def test_validate_structure_rejects_duplicate_crossing():
    """A crossing listed twice is a problem even though every crossing is
    covered; `bits()` would otherwise keep one entry silently."""
    p = chain_pattern(3)
    r = make_structure(
        p, {"a": ["b"], "b": ["a", "c"], "c": ["b"]}, {("a", "b"): 0, ("b", "c"): 0}
    )
    for extra in (("a", "b", 1), ("b", "a", 0)):
        dup = RibbonStructure(r.visit_orders, r.crossing_bits + (extra,))
        assert validate_structure(p, dup) == [
            "crossing ('a', 'b') listed more than once"
        ]
        with pytest.raises(InvalidInputError):
            surface_of(p, dup)


def test_restriction_monotonicity_random():
    rng = random.Random(21)
    for _ in range(12):
        while True:
            n = rng.randrange(3, 6)
            labs = [chr(ord("a") + i) for i in range(n)]
            pairs = [
                (a, b)
                for a, b in itertools.combinations(labs, 2)
                if rng.random() < 0.6
            ]
            deg = {l: sum(1 for x in pairs if l in x) for l in labs}
            keep = [l for l in labs if deg[l] > 0]
            if len(keep) >= 3 and 2 <= len(pairs) <= 8:
                p = make_pattern(
                    keep, [(a, b) for a, b in pairs if a in keep and b in keep]
                )
                break
        structs = list(enumerate_structures(p))
        r = rng.choice(structs)
        g_full = surface_of(p, r).total_genus
        sub_labels = rng.sample(list(p.curves), len(p.curves) - 1)
        sub, rsub = restrict(p, r, sub_labels)
        if sub.curves:
            assert surface_of(sub, rsub).total_genus <= g_full


def test_naive_min_genus_pair():
    p = pair_pattern()
    g, witness = naive_min_genus(p)
    assert g == 1
    assert surface_of(p, witness).total_genus == 1


def test_structure_json_roundtrip():
    p = chain_pattern(3)
    r = next(enumerate_structures(p))
    text = json.dumps(structure_to_json_dict(r), sort_keys=True)
    r2 = structure_from_json(text)
    assert json.dumps(structure_to_json_dict(r2), sort_keys=True) == text
    with pytest.raises(InvalidInputError):
        structure_from_json("{}")
