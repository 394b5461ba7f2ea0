import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistlat import AFFINE_CYCLE, BR8_CHAIN, InvalidInputError, build_gamma
from twistlat.bitgraph import no_opposite_pair, parse_vertex, vertex_str


def brute_edge(u, v):
    """Independent oracle: no coordinate pair with opposite-sign differences."""
    if u == v:
        return False
    d = [a - b for a, b in zip(u, v)]
    return all(x * y >= 0 for x, y in itertools.combinations(d, 2))


@pytest.mark.parametrize(
    "k,nv,ne", [(1, 2, 1), (2, 4, 5), (3, 8, 19), (4, 16, 65)]
)
def test_vertex_and_edge_counts(k, nv, ne):
    g = build_gamma(k)
    assert len(g.vertices) == nv
    # oracle: exhaustive pair scan with the literal sign rule
    expected = sum(
        1
        for u, v in itertools.combinations(g.vertices, 2)
        if brute_edge(u, v)
    )
    assert expected == ne
    assert len(g.edges) == ne


def test_vertices_lexicographic():
    g = build_gamma(3)
    assert g.vertices == tuple(sorted(g.vertices))
    assert g.vertices[0] == (0, 0, 0) and g.vertices[-1] == (1, 1, 1)


def test_k_bounds():
    with pytest.raises(InvalidInputError):
        build_gamma(0)
    with pytest.raises(InvalidInputError):
        build_gamma(9)


def test_is_edge_examples():
    g = build_gamma(4)
    assert g.is_edge((0, 0, 0, 0), (0, 1, 1, 0))
    assert not g.is_edge((0, 1, 0, 0), (1, 0, 1, 0))
    assert g.is_edge((0, 0, 0, 1), (0, 1, 0, 1))
    assert not g.is_edge((0, 0, 0, 1), (0, 0, 0, 1))
    with pytest.raises(InvalidInputError):
        g.is_edge((0, 1), (0, 0, 0, 1))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_edge_rules_agree_and_symmetry(k):
    g = build_gamma(k)
    for u, v in itertools.product(g.vertices, repeat=2):
        a = g.is_edge(u, v)
        assert a == (u != v and no_opposite_pair(u, v))
        assert a == g.is_edge(v, u)
        if u == v:
            assert not a


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_extremal_vertices(k):
    g = build_gamma(k)
    ext = g.extremal_vertices()
    assert set(ext) == {(0,) * k, (1,) * k}
    for v in ext:
        assert g.degree(v) == 2**k - 1
    for v in g.vertices:
        assert g.is_extremal(v) == (v in ext)


def test_extremal_membership_query():
    g = build_gamma(4)
    assert not g.is_extremal((0, 0, 0, 1))


def test_verify_chain_canonical():
    g = build_gamma(4)
    rep = g.verify_chain(BR8_CHAIN)
    assert rep.is_chain and rep.violations == ()


def test_verify_chain_chord():
    g = build_gamma(4)
    rep = g.verify_chain([(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 1)])
    assert not rep.is_chain
    assert ((0, 2), "chord") in rep.violations


def test_verify_chain_singleton_and_repeat():
    g = build_gamma(4)
    assert g.verify_chain([(0, 0, 0, 1)]).is_chain
    rep = g.verify_chain([(0, 0, 0, 1), (0, 1, 0, 1), (0, 0, 0, 1)])
    assert not rep.is_chain
    assert any(reason == "repeat" for _, reason in rep.violations)


def test_verify_chain_missing_edge():
    g = build_gamma(4)
    rep = g.verify_chain([(0, 0, 0, 1), (0, 0, 1, 0)])
    assert ((0, 1), "missing-edge") in rep.violations


def test_affine_cycle_is_induced():
    g = build_gamma(4)
    assert g.verify_induced_cycle(AFFINE_CYCLE)


def test_small_induced_cycle():
    g = build_gamma(4)
    # three pairwise-comparable vertices: a triangle is an induced 3-cycle
    assert g.verify_induced_cycle([(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 1)])


def test_four_cycle_through_extremal_fails():
    g = build_gamma(4)
    seq = [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 1, 1)]
    # consecutive pairs are all edges, but the extremal chord kills it
    assert not g.verify_induced_cycle(seq)


def test_induced_cycle_input_errors():
    g = build_gamma(4)
    with pytest.raises(InvalidInputError):
        g.verify_induced_cycle([(0, 0, 0, 0), (0, 0, 0, 1)])
    with pytest.raises(InvalidInputError):
        g.verify_induced_cycle([(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0)])


def test_enumerate_induced_paths_k1():
    g = build_gamma(1)
    assert g.enumerate_induced_paths(2) == [((0,), (1,))]


def test_enumerate_induced_paths_contains_canonical_chain():
    g = build_gamma(4)
    paths = g.enumerate_induced_paths(7, avoid_extremal=True)
    assert tuple(BR8_CHAIN) in paths
    # every enumerated path is an induced chain and is canonical
    for p in paths:
        assert g.verify_chain(p).is_chain
        assert p[0] < p[-1]
    # no duplicates
    assert len(set(paths)) == len(paths)


def test_no_hamiltonian_induced_path():
    g = build_gamma(4)
    assert g.enumerate_induced_paths(16) == []


def test_commuting_partner_witnesses():
    g = build_gamma(4)
    chain = list(BR8_CHAIN)

    def oracle(v):
        for i in (1, 3, 4, 5, 6, 7):
            u = chain[i - 1]
            if u == v or not g.is_edge(u, v):
                return i
        return None

    for v in g.vertices:
        assert g.commuting_partner_witness(chain, v) == oracle(v)
    assert g.commuting_partner_witness(chain, (0, 0, 1, 1)) == 3
    assert g.commuting_partner_witness(chain, (0, 1, 1, 1)) == 6
    assert g.commuting_partner_witness(chain, (0, 0, 0, 0)) is None
    assert g.commuting_partner_witness(chain, (1, 1, 1, 1)) is None
    for v in g.vertices:
        have = g.commuting_partner_witness(chain, v) is not None
        assert have == (not g.is_extremal(v))


def test_commuting_partner_short_chain():
    g = build_gamma(4)
    # (1111) braids with every chain vertex, so the search runs past the
    # end of a chain shorter than seven
    with pytest.raises(InvalidInputError):
        g.commuting_partner_witness(BR8_CHAIN[:3], (1, 1, 1, 1))
    # (0011) commutes with position 3 before the end of the chain is reached
    assert g.commuting_partner_witness(BR8_CHAIN[:3], (0, 0, 1, 1)) == 3


def test_json_roundtrip_and_dot():
    g = build_gamma(3)
    data = json.loads(json.dumps(g.to_json_dict()))
    assert tuple(parse_vertex(s) for s in data["vertices"]) == g.vertices
    assert tuple(tuple(e) for e in data["edges"]) == g.edges
    dot = g.to_dot()
    assert dot.count("--") == len(g.edges)
    assert '"000"' in dot


def test_parse_vertex():
    assert parse_vertex("0101") == (0, 1, 0, 1)
    assert vertex_str((1, 0)) == "10"
    with pytest.raises(InvalidInputError):
        parse_vertex("01x1")


@given(st.integers(1, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_comparability_characterization(k, data):
    g = build_gamma(k)
    u = data.draw(st.sampled_from(g.vertices))
    v = data.draw(st.sampled_from(g.vertices))
    comparable = all(a <= b for a, b in zip(u, v)) or all(
        a >= b for a, b in zip(u, v)
    )
    assert g.is_edge(u, v) == (u != v and comparable)
