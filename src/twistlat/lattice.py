"""The skew intersection lattice on bit-tuple vanishing cycles.

The pairing follows the classical rule for the intersection numbers of a
distinguished basis of vanishing cycles indexed by {0,1}^k: for i < j in
lexicographic order the pairing is -(-1)^{sum_n (i_n - j_n)} when i and j
are coordinatewise comparable and 0 otherwise; the rest of the matrix is
filled in by skew-symmetry.  The support of the matrix therefore coincides
with the edge set of the comparability graph.

For k = 4 the form has rank 10 with a rank-6 radical.  `quotient_lattice`
produces the rank-10 torsion-free quotient in canonical coordinates: the
quotient is identified with the image lattice of the Gram matrix (x mod
radical <-> G x), whose Hermite row basis fixes the coordinates.

All arithmetic in this module is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import intlinalg as la
from .bitgraph import Vertex, no_opposite_pair, vertices
from .errors import DegenerateFormError, InvalidInputError


def hl_pairing(i: Vertex, j: Vertex) -> int:
    """Signed intersection number of the vanishing cycles indexed by i, j."""
    i, j = tuple(i), tuple(j)
    if len(i) != len(j):
        raise InvalidInputError("bit-tuples must have equal length")
    if any(b not in (0, 1) for b in i + j):
        raise InvalidInputError("entries must be bits")
    if i == j:
        return 0
    if i > j:
        return -hl_pairing(j, i)
    # i < j lexicographically from here on
    if not no_opposite_pair(i, j):
        return 0
    # -(-1)^s read via the parity of the integer s = sum of differences
    s = sum(a - b for a, b in zip(i, j))
    return 1 if s % 2 else -1


@dataclass(frozen=True)
class SkewLattice:
    """Free lattice with a skew-symmetric integer Gram matrix."""

    k: int
    gram: la.IntMatrix

    @property
    def dimension(self) -> int:
        return len(self.gram)

    def rank(self) -> int:
        return la.rank(self.gram)


@dataclass(frozen=True)
class QuotientLattice:
    """Quotient of a SkewLattice by the saturated radical of its form.

    class_map[i] gives the image of the i-th basis vector in quotient
    coordinates; induced_gram is the (nondegenerate) induced skew form and
    reproduces the original pairings on classes.
    """

    source: SkewLattice
    rank: int
    induced_gram: la.IntMatrix
    class_map: la.IntMatrix
    radical_basis: la.IntMatrix

    def pairing(self, x: Sequence[int], y: Sequence[int]) -> int:
        return la.vec_dot(x, la.mat_vec(self.induced_gram, y))

    def determinant(self) -> int:
        return la.det(self.induced_gram)


def gram_matrix(k: int) -> SkewLattice:
    """Full Gram matrix of the pairing on {0,1}^k in lexicographic order."""
    verts = vertices(k)
    gram = tuple(
        tuple(hl_pairing(u, v) for v in verts) for u in verts
    )
    return SkewLattice(k=k, gram=gram)


def quotient_lattice(lattice: SkewLattice) -> QuotientLattice:
    g = lattice.gram
    n = len(g)
    # Image lattice of x -> G x; its Hermite basis fixes quotient coordinates.
    # U G^T = H, so the transform row u matching a basis row h has G u = h:
    # these rows are the integral preimages that give the induced form, and
    # the rows under H's zero rows span the radical, as in `la.kernel_basis`.
    h, u = la.row_hnf(la.transpose(g), with_transform=True)
    r = sum(1 for row in h if not la.is_zero_vector(row))
    image_basis, preimages = h[:r], u[:r]
    rad = tuple(row for row in la.row_hnf(u[r:]) if not la.is_zero_vector(row))
    class_map = []
    for i in range(n):
        col = tuple(g[t][i] for t in range(n))
        coords = la.hnf_coords(image_basis, col)
        if coords is None:
            raise AssertionError("column of G must lie in the image lattice")
        class_map.append(coords)
    induced = tuple(
        tuple(la.vec_dot(preimages[a], image_basis[b]) for b in range(r))
        for a in range(r)
    )
    q = QuotientLattice(
        source=lattice,
        rank=r,
        induced_gram=induced,
        class_map=tuple(class_map),
        radical_basis=rad,
    )
    _check_quotient(q)
    return q


def _check_quotient(q: QuotientLattice) -> None:
    g = q.source.gram
    n = len(g)
    for a in range(q.rank):
        if q.induced_gram[a][a] != 0:
            raise AssertionError("induced form has a nonzero diagonal entry")
        for b in range(a + 1, q.rank):
            if q.induced_gram[a][b] != -q.induced_gram[b][a]:
                raise AssertionError("induced form is not skew-symmetric")
    for i in range(n):
        for j in range(n):
            if q.pairing(q.class_map[i], q.class_map[j]) != g[i][j]:
                raise AssertionError(
                    f"quotient pairing disagrees with the Gram matrix at ({i},{j})"
                )
    for row in q.radical_basis:
        if not la.is_zero_vector(la.mat_vec(g, row)):
            raise AssertionError("radical basis vector not annihilated by the form")
    if la.rank(q.class_map) != q.rank:
        raise AssertionError("classes do not span the quotient")


def sublattice_rank(q: QuotientLattice, subset: Sequence[int]) -> int:
    """Rational rank of the span of the selected basis classes."""
    for i in subset:
        if not 0 <= i < len(q.class_map):
            raise InvalidInputError(f"vertex index {i} out of range")
    if not subset:
        return 0
    return la.rank([q.class_map[i] for i in subset])


def symplectic_basis(q_or_gram) -> la.IntMatrix:
    """Integral change of basis putting a unimodular skew form into the
    standard block form with 2x2 blocks [[0,1],[-1,0]].

    Accepts a QuotientLattice or a raw Gram matrix.  Raises
    DegenerateFormError if the form is degenerate or any symplectic divisor
    exceeds 1.
    """
    if isinstance(q_or_gram, QuotientLattice):
        gram = q_or_gram.induced_gram
    else:
        gram = la.freeze(q_or_gram)
    n = len(gram)
    if n % 2:
        raise DegenerateFormError("odd rank skew form cannot be unimodular")

    def pair(x: Sequence[int], y: Sequence[int]) -> int:
        return la.vec_dot(x, la.mat_vec(gram, y))

    basis = [list(row) for row in la.identity(n)]
    result: list[list[int]] = []
    while basis:
        best = None
        for a in range(len(basis)):
            for b in range(a + 1, len(basis)):
                v = pair(basis[a], basis[b])
                if v and (best is None or abs(v) < abs(best[2])):
                    best = (a, b, v)
        if best is None:
            raise DegenerateFormError("form is degenerate on the remaining basis")
        a, b, v = best
        e, f = basis[a], basis[b]
        others = [w for w in basis if w is not e and w is not f]
        if v < 0:
            e, f = f, e
            v = -v
        # Shrink pair(e, f) = v until it divides every pairing with e and f.
        # Each replacement keeps {e, f} + others a basis and decreases v, so
        # this terminates; for a unimodular form it ends at v = 1.
        while True:
            for w in others:
                p = pair(e, w)
                if p % v:
                    q = p // v
                    wn = [wi - q * fi for wi, fi in zip(w, f)]  # pair(e, wn) = p mod v
                    others[others.index(w)] = f
                    f = wn
                    v = pair(e, f)
                    break
                p = pair(f, w)
                if p % v:
                    q = p // v
                    wn = [wi + q * ei for wi, ei in zip(w, e)]  # pair(f, wn) = p mod v
                    others[others.index(w)] = e
                    e, f = f, wn
                    v = pair(e, f)
                    break
            else:
                break
        if v != 1:
            raise DegenerateFormError(
                f"form is not unimodular: symplectic divisor {v}"
            )
        rest = []
        for w in others:
            pe, pf = pair(e, w), pair(f, w)
            w2 = [wi - pe * fi + pf * ei for wi, fi, ei in zip(w, f, e)]
            rest.append(w2)
        result.append(e)
        result.append(f)
        basis = rest
    out = la.freeze(result)
    # final sanity: the transported form must be the standard one
    std = tuple(
        tuple(pair(out[i], out[j]) for j in range(n)) for i in range(n)
    )
    for i in range(n):
        for j in range(n):
            want = 0
            if i // 2 == j // 2:
                want = 1 if (i % 2 == 0 and j == i + 1) else (-1 if j == i - 1 else 0)
            if std[i][j] != want:
                raise DegenerateFormError("reduction failed to reach standard form")
    return out


def lattice_to_json_dict(lattice: SkewLattice, q: QuotientLattice | None = None) -> dict:
    payload = {
        "k": lattice.k,
        "dimension": lattice.dimension,
        "gram": [list(r) for r in lattice.gram],
    }
    if q is not None:
        payload.update(
            {
                "rank": q.rank,
                "radical_basis": [list(r) for r in q.radical_basis],
                "class_map": [list(r) for r in q.class_map],
                "induced_gram": [list(r) for r in q.induced_gram],
            }
        )
    return payload
