import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from twistlat import (
    DegenerateFormError,
    InvalidInputError,
    build_gamma,
    gram_matrix,
    hl_pairing,
    quotient_lattice,
    sublattice_rank,
    symplectic_basis,
)
from twistlat import intlinalg as la
from twistlat.lattice import lattice_to_json_dict


def test_pairing_examples():
    assert hl_pairing((0, 0, 0, 0), (0, 0, 0, 1)) == 1
    assert hl_pairing((0, 1, 0, 0), (1, 0, 1, 0)) == 0
    assert hl_pairing((0, 0, 0, 1), (0, 0, 0, 1)) == 0
    # skew extension
    assert hl_pairing((0, 0, 0, 1), (0, 0, 0, 0)) == -1
    with pytest.raises(InvalidInputError):
        hl_pairing((0, 1), (0, 1, 1))
    with pytest.raises(InvalidInputError):
        hl_pairing((0, 2), (0, 1))


@given(st.integers(1, 5), st.data())
@settings(max_examples=80, deadline=None)
def test_pairing_reduces_to_distance_parity(k, data):
    bits = st.tuples(*[st.integers(0, 1)] * k)
    u = data.draw(bits)
    v = data.draw(bits)
    val = hl_pairing(u, v)
    comparable = all(a <= b for a, b in zip(u, v)) or all(
        a >= b for a, b in zip(u, v)
    )
    if u == v or not comparable:
        assert val == 0
    else:
        d = sum(abs(a - b) for a, b in zip(u, v))
        expect = 1 if d % 2 else -1
        if u > v:
            expect = -expect
        assert val == expect


def test_gram_k1():
    lat = gram_matrix(1)
    assert lat.gram == ((0, 1), (-1, 0))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_gram_shape_and_support(k):
    lat = gram_matrix(k)
    g = build_gamma(k)
    n = lat.dimension
    for i in range(n):
        assert lat.gram[i][i] == 0
        for j in range(n):
            assert lat.gram[i][j] == -lat.gram[j][i]
            assert abs(lat.gram[i][j]) == (
                1 if g.is_edge(g.vertices[i], g.vertices[j]) else 0
            )


def test_gram_rank_and_radical():
    lat = gram_matrix(4)
    assert lat.rank() == 10
    assert sympy.Matrix([list(r) for r in lat.gram]).rank() == 10
    rad = quotient_lattice(lat).radical_basis
    assert rad == la.kernel_basis(lat.gram)
    assert len(rad) == 6
    for v in rad:
        assert la.is_zero_vector(la.mat_vec(lat.gram, v))
    # canonical: the basis is its own Hermite form
    assert tuple(r for r in la.row_hnf(rad) if not la.is_zero_vector(r)) == rad


def test_radical_of_nondegenerate_is_empty():
    lat = gram_matrix(1)
    assert quotient_lattice(lat).radical_basis == la.kernel_basis(lat.gram) == ()


def test_quotient_basics():
    lat = gram_matrix(4)
    q = quotient_lattice(lat)
    assert q.rank == 10
    assert len(q.class_map) == 16
    assert la.rank(q.class_map) == 10
    # rank(gram) + radical rank = dimension
    assert lat.rank() + len(q.radical_basis) == 16
    # pairing preservation on all pairs (also enforced at construction)
    for i in range(16):
        for j in range(16):
            assert q.pairing(q.class_map[i], q.class_map[j]) == lat.gram[i][j]


def test_quotient_unimodular():
    q = quotient_lattice(gram_matrix(4))
    det_mine = q.determinant()
    det_oracle = sympy.Matrix([list(r) for r in q.induced_gram]).det()
    assert det_mine == det_oracle
    assert abs(det_mine) == 1


def test_sublattice_rank_all_and_single():
    g = build_gamma(4)
    q = quotient_lattice(gram_matrix(4))
    assert sublattice_rank(q, list(range(16))) == 10
    for i in range(16):
        assert sublattice_rank(q, [i]) == 1
    assert sublattice_rank(q, []) == 0
    with pytest.raises(InvalidInputError):
        sublattice_rank(q, [99])


def test_sublattice_rank_monotone():
    import random

    q = quotient_lattice(gram_matrix(4))
    rng = random.Random(3)
    for _ in range(30):
        sub = rng.sample(range(16), rng.randrange(1, 16))
        bigger = sub + [i for i in range(16) if i not in sub][:2]
        assert sublattice_rank(q, sub) <= sublattice_rank(q, bigger) <= 10


def test_nonextremal_span_and_rectangle_relation():
    """The radical contains vectors supported on non-extremal vertices, so
    the 14 non-extremal classes span strictly less than the full quotient;
    the smallest such relation is the rectangle below."""
    g = build_gamma(4)
    q = quotient_lattice(gram_matrix(4))
    idx = {v: i for i, v in enumerate(g.vertices)}
    rect = [0] * 10
    for v, s in [
        ((0, 0, 1, 1), 1),
        ((0, 1, 1, 0), -1),
        ((1, 0, 0, 1), -1),
        ((1, 1, 0, 0), 1),
    ]:
        c = q.class_map[idx[v]]
        rect = [x + s * y for x, y in zip(rect, c)]
    assert la.is_zero_vector(rect)
    non_ext = [i for i, v in enumerate(g.vertices) if not g.is_extremal(v)]
    assert sublattice_rank(q, non_ext) == 9
    # the corresponding 14x14 pairing submatrix then has rank 8
    sub = [[q.source.gram[i][j] for j in non_ext] for i in non_ext]
    assert sympy.Matrix(sub).rank() == 8


def test_symplectic_basis_standard_form():
    q = quotient_lattice(gram_matrix(4))
    basis = symplectic_basis(q)
    assert len(basis) == 10
    for i, bi in enumerate(basis):
        for j, bj in enumerate(basis):
            v = q.pairing(bi, bj)
            if i // 2 == j // 2 and j == i + 1:
                assert v == 1
            elif i // 2 == j // 2 and j == i - 1:
                assert v == -1
            else:
                assert v == 0
    # the basis is a basis of Z^10
    assert abs(la.det(basis)) == 1


def test_symplectic_basis_rank2_identity():
    assert symplectic_basis([[0, 1], [-1, 0]]) == ((1, 0), (0, 1))


def test_symplectic_basis_errors():
    with pytest.raises(DegenerateFormError):
        symplectic_basis([[0, 0], [0, 0]])
    with pytest.raises(DegenerateFormError):
        symplectic_basis([[0, 2], [-2, 0]])
    with pytest.raises(DegenerateFormError):
        symplectic_basis([[0]])


def test_k_bounds_and_json():
    with pytest.raises(InvalidInputError):
        gram_matrix(0)
    lat = gram_matrix(2)
    q = quotient_lattice(lat)
    data = lattice_to_json_dict(lat, q)
    assert data["dimension"] == 4
    assert data["rank"] == q.rank
    assert data["gram"] == [list(r) for r in lat.gram]



@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_quotient_reproduces_gram_for_every_k(k):
    """The quotient for each small k, the degenerate k = 3 and k = 5 too:
    sympy's rank, a complementary radical and every pairing of classes."""
    lat = gram_matrix(k)
    q = quotient_lattice(lat)
    assert q.rank == sympy.Matrix([list(r) for r in lat.gram]).rank()
    assert q.rank + len(q.radical_basis) == lat.dimension
    n = lat.dimension
    for i in range(n):
        for j in range(n):
            assert q.pairing(q.class_map[i], q.class_map[j]) == lat.gram[i][j]
