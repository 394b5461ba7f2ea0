import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from twistlat import intlinalg as la


def _sympy(m):
    return sympy.Matrix([list(r) for r in m])


small_matrix = st.integers(1, 5).flatmap(
    lambda n: st.integers(1, 5).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-6, 6), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


@given(small_matrix)
@settings(max_examples=120, deadline=None)
def test_hnf_transform_and_rank(rows):
    h, u = la.row_hnf(rows, with_transform=True)
    assert la.mat_mul(u, rows) == h
    assert abs(la.det(u)) == 1
    assert la.rank(rows) == _sympy(rows).rank()
    # canonical shape: positive pivots, entries above reduced, zero rows last
    pivots = []
    seen_zero = False
    for row in h:
        nz = next((j for j, x in enumerate(row) if x), None)
        if nz is None:
            seen_zero = True
            continue
        assert not seen_zero, "zero row above a nonzero row"
        assert row[nz] > 0
        pivots.append(nz)
    assert pivots == sorted(pivots)
    for r, j in enumerate(pivots):
        for above in range(r):
            assert 0 <= h[above][j] < h[r][j]


@given(small_matrix)
@settings(max_examples=100, deadline=None)
def test_kernel_basis(rows):
    ker = la.kernel_basis(rows)
    n = len(rows[0])
    for v in ker:
        assert la.is_zero_vector(la.mat_vec(rows, v))
    assert len(ker) == n - _sympy(rows).rank()
    if ker:
        assert la.rank(ker) == len(ker)


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-5, 5), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
@settings(max_examples=100, deadline=None)
def test_det_matches_sympy(rows):
    assert la.det(rows) == _sympy(rows).det()


def test_hnf_coords_roundtrip():
    basis = la.row_hnf([[2, 1, 0], [0, 3, 1]])
    basis = tuple(r for r in basis if not la.is_zero_vector(r))
    v = tuple(2 * a + 5 * b for a, b in zip(basis[0], basis[1]))
    coords = la.hnf_coords(basis, v)
    assert coords == (2, 5)
    assert la.hnf_coords(basis, (1, 0, 0)) is None


def test_rank_mod2():
    assert la.rank_mod2([[1, 1], [1, 1]]) == 1
    assert la.rank_mod2([[2, 4], [6, 8]]) == 0
    assert la.rank_mod2([[1, 0], [0, 1]]) == 2


def test_rowspace_incremental():
    rs = la.RowSpace(3)
    assert rs.add((1, 2, 3))
    assert not rs.add((2, 4, 6))
    assert rs.add((0, 1, 1))
    assert rs.rank == 2
    assert rs.contains((1, 3, 4))
    assert not rs.contains((0, 0, 1))
