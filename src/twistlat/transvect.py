"""Integer symplectic transvections attached to the graph vertices.

Each vertex class a (from the quotient lattice) acts on the quotient by
x -> x + s*<x, a>*a with s = +1 or -1; the resulting matrices preserve the
induced form exactly.  Every product of these transvections is evaluated
over a word of vertices letter by letter, one rank-one update per letter
(`word_matrix`); the relation checks share the products of common prefixes
within each pair and each triangle.  The checks in this module mechanize,
at the matrix level, the group-theoretic facts used downstream:
braid/commutation for every vertex pair, the four-letter relation on
triangles, explicit conjugating words along a spanning tree, invariance of
a quadratic refinement of the mod-2 pairing, irreducibility as
invariant-subspace closure, and the mod-2 non-degeneracy of the
alternating chain sum.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from . import intlinalg as la
from .bitgraph import ArtinGraph, Vertex, vertex_str, vertices
from .errors import InvalidInputError, RefinementError
from .lattice import QuotientLattice


@functools.lru_cache(maxsize=None)
def _vertex_positions(k: int) -> dict[Vertex, int]:
    return {v: i for i, v in enumerate(vertices(k))}


def _vertex_index(q: QuotientLattice, v: Vertex) -> int:
    try:
        return _vertex_positions(q.source.k)[tuple(v)]
    except (KeyError, TypeError):
        raise InvalidInputError(f"not a vertex of this lattice: {v!r}") from None


# One letter of a word: the nonzero (j, a_j) of the vertex class a, and the
# row sign*u with u = G a, so that <x, a> = x . u.
Letter = tuple[tuple[tuple[int, int], ...], la.IntVector]


@functools.lru_cache(maxsize=8)
def _letters(q: QuotientLattice, sign: int) -> tuple[Letter, ...]:
    """The letter of each vertex, in vertex order, for this lattice and sign."""
    return tuple(
        (
            tuple((j, x) for j, x in enumerate(a) if x),
            tuple(sign * x for x in la.mat_vec(q.induced_gram, a)),
        )
        for a in q.class_map
    )


def _times_letter(m: la.IntMatrix, letter: Letter) -> la.IntMatrix:
    """M T_v = M + (M a)(sign*u)^T, one rank-one update; rows of M that
    pair to zero with a are shared, not copied."""
    support, su = letter
    out = []
    for row in m:
        c = sum(row[j] * x for j, x in support)
        out.append(tuple(r + c * s for r, s in zip(row, su)) if c else row)
    return tuple(out)


def preserves_form(entries: Sequence[Sequence[int]], gram: la.IntMatrix) -> bool:
    m = la.freeze(entries)
    return la.mat_mul(la.mat_mul(la.transpose(m), gram), m) == gram


def word_matrix(
    q: QuotientLattice, word: Sequence[Vertex], sign: int = 1
) -> la.IntMatrix:
    """T_{w1} ... T_{wn} (leftmost factor first) in quotient coordinates,
    where T_v is x -> x + sign*<x, a_v>*a_v.

    T_v = I + sign * a_v u_v^T with u_v = G a_v, so each letter is one
    rank-one update M T_v = M + sign * (M a_v) u_v^T; the empty word gives I.
    """
    if sign not in (1, -1):
        raise InvalidInputError("sign must be +1 or -1")
    letters = _letters(q, sign)
    m = la.identity(q.rank)
    for v in word:
        m = _times_letter(m, letters[_vertex_index(q, v)])
    return m


def transvection(q: QuotientLattice, v: Vertex, sign: int = 1) -> la.IntMatrix:
    """Matrix of x -> x + sign*<x, a_v>*a_v in quotient coordinates."""
    return _transvection(q, _vertex_index(q, v), sign)


@functools.lru_cache(maxsize=128)
def _transvection(q: QuotientLattice, i: int, sign: int) -> la.IntMatrix:
    # computed, and checked against the form, once per lattice, vertex and sign
    v = vertices(q.source.k)[i]
    t = word_matrix(q, (v,), sign)
    if not preserves_form(t, q.induced_gram):
        raise AssertionError(f"transvection of {vertex_str(v)} breaks the form")
    return t


@dataclass(frozen=True)
class TransvectionShape:
    """Per-generator structure facts: rank-one deviation, square-zero
    deviation, primitive direction, and a hyperplane of fixed vectors."""

    vertex: Vertex
    ambient_rank: int
    deviation_rank: int
    deviation_squared_zero: bool
    direction_primitive: bool
    fixed_space_dim: int

    @property
    def ok(self) -> bool:
        return (
            self.deviation_rank == 1
            and self.deviation_squared_zero
            and self.direction_primitive
            and self.fixed_space_dim == self.ambient_rank - 1
        )


def transvection_shape(q: QuotientLattice, v: Vertex, sign: int = 1) -> TransvectionShape:
    t = transvection(q, v, sign)
    n = q.rank
    dev = la.mat_sub(t, la.identity(n))
    dev_rank = la.rank(dev)
    dev_sq = la.mat_mul(dev, dev)
    sq_zero = all(all(x == 0 for x in row) for row in dev_sq)
    a = q.class_map[_vertex_index(q, v)]
    return TransvectionShape(
        vertex=tuple(v),
        ambient_rank=n,
        deviation_rank=dev_rank,
        deviation_squared_zero=sq_zero,
        direction_primitive=la.vector_content(a) == 1,
        fixed_space_dim=n - dev_rank,
    )


@dataclass
class RelationReport:
    """Failures of the pair and triangle relation checks (expected empty)."""

    sign: int
    pairs_checked: int = 0
    triangles_checked: int = 0
    pair_failures: list[tuple[Vertex, Vertex, str]] = field(default_factory=list)
    triangle_failures: list[tuple[Vertex, Vertex, Vertex]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.pair_failures and not self.triangle_failures


def triangle_identity_expected(
    q: QuotientLattice, x: Vertex, y: Vertex, z: Vertex, sign: int = 1
) -> bool:
    """Whether the four-letter identity T_x T_y T_z T_x = T_y T_z T_x T_y
    must hold for this ordering of a triangle.

    For transvections of global sign s along classes pairing to +-1 the
    identity holds exactly when the cyclic product <x,y><y,z><z,x> equals
    -s; every triangle of the graph has exactly one orientation class
    (three of the six orderings) with that product, so each triangle
    satisfies the relation in a unique cyclic orientation.
    """
    gi = _vertex_index(q, x), _vertex_index(q, y), _vertex_index(q, z)
    gram = q.source.gram
    prod = gram[gi[0]][gi[1]] * gram[gi[1]][gi[2]] * gram[gi[2]][gi[0]]
    return prod == -sign


def verify_all_relations(
    q: QuotientLattice, g: ArtinGraph, sign: int = 1
) -> RelationReport:
    """Check braid-vs-commute on every vertex pair against adjacency, and the
    four-letter identity T_u T_v T_w T_u = T_v T_w T_u T_v on every ordering
    of every triangle (holding exactly in the orientation class where the
    signed pairings multiply to -1 around the triangle).

    A word's matrix is its prefix's matrix times its last letter, memoized
    per word.  The memo holds the products of one pair or one triangle and
    is reset between them, so it stays a few dozen matrices.
    """
    verts = vertices(q.source.k)
    if verts != g.vertices:
        raise InvalidInputError("graph and lattice have different vertex sets")
    ts = {v: transvection(q, v, sign) for v in verts}
    letters = dict(zip(verts, _letters(q, sign)))
    seeds: dict[tuple[Vertex, ...], la.IntMatrix] = {(v,): t for v, t in ts.items()}
    seeds[()] = la.identity(q.rank)

    def product(word: tuple[Vertex, ...]) -> la.IntMatrix:
        m = memo.get(word)
        if m is None:
            m = memo[word] = _times_letter(product(word[:-1]), letters[word[-1]])
        return m

    def same(lhs: tuple[Vertex, ...], rhs: tuple[Vertex, ...]) -> bool:
        return product(lhs) == product(rhs)

    report = RelationReport(sign=sign)
    n = len(verts)
    for i in range(n):
        for j in range(i + 1, n):
            memo = dict(seeds)  # a fresh memo for each pair and each triangle
            u, v = verts[i], verts[j]
            edge = g.is_edge(u, v)
            lhs, rhs = ((u, v, u), (v, u, v)) if edge else ((u, v), (v, u))
            if not same(lhs, rhs):
                report.pair_failures.append((u, v, "braid" if edge else "commute"))
            # distinct commuting transvections must not also braid (equal
            # matrices satisfy both; that happens only in degenerate small
            # quotients where two vertex classes coincide, never for k = 4)
            if not edge and ts[u] != ts[v] and same((u, v, u), (v, u, v)):
                report.pair_failures.append((u, v, "braid-on-non-edge"))
            report.pairs_checked += 1
    for i in range(n):
        for j in range(i + 1, n):
            if not g.is_edge(verts[i], verts[j]):
                continue
            for k in range(j + 1, n):
                u, v, w = verts[i], verts[j], verts[k]
                if not (g.is_edge(v, w) and g.is_edge(u, w)):
                    continue
                memo = dict(seeds)
                expectations = [
                    triangle_identity_expected(q, x, y, z, sign)
                    for x, y, z in itertools.permutations((u, v, w))
                ]
                if sum(expectations) != 3:
                    # exactly one orientation class must carry the relation
                    report.triangle_failures.append((u, v, w))
                for (x, y, z), expected in zip(
                    itertools.permutations((u, v, w)), expectations
                ):
                    if same((x, y, z, x), (y, z, x, y)) != expected:
                        report.triangle_failures.append((x, y, z))
                report.triangles_checked += 1
    return report


def conjugacy_witnesses(
    q: QuotientLattice, g: ArtinGraph, sign: int = 1
) -> dict[Vertex, tuple[Vertex, ...]]:
    """For each vertex v, a word w (generator vertices, leftmost factor
    first) with M(w) T_root M(w)^-1 == T_v, where the root is the first
    vertex, built over a BFS spanning tree from the braid identity
    (T_u T_v) T_u (T_u T_v)^-1 = T_v.

    Every witness is verified by exact multiplication before returning.
    """
    verts = vertices(q.source.k)
    root = verts[0]
    ts = {v: transvection(q, v, sign) for v in verts}
    words: dict[Vertex, tuple[Vertex, ...]] = {root: ()}
    queue = [root]
    while queue:
        u = queue.pop(0)
        for v in g.neighbors(u):
            if v in words:
                continue
            words[v] = (u, v) + words[u]
            queue.append(v)
    if len(words) != len(verts):
        raise InvalidInputError("graph is not connected; no spanning tree")

    for v, word in words.items():
        mw = word_matrix(q, word, sign)
        mw_inv = word_matrix(q, word[::-1], -sign)
        if la.mat_mul(mw, mw_inv) != la.identity(q.rank):
            raise AssertionError("word inverse failed")
        if la.mat_mul(la.mat_mul(mw, ts[root]), mw_inv) != ts[v]:
            raise AssertionError(f"witness for {vertex_str(v)} failed verification")
    return words


# -- quadratic refinement over F_2 -------------------------------------------


def _mask(vec: Sequence[int]) -> int:
    m = 0
    for i, x in enumerate(vec):
        if x & 1:
            m |= 1 << i
    return m


def _form_mask(gram_mod2: Sequence[int], x: int) -> int:
    """Coordinate mask of G x mod 2, from the form's row masks."""
    gx = 0
    for i, row in enumerate(gram_mod2):
        if (row & x).bit_count() & 1:
            gx |= 1 << i
    return gx


@dataclass(frozen=True)
class QuadraticRefinement:
    """q: (Z/2)^r -> Z/2 with q(x+y) = q(x) + q(y) + <x,y> and q = 1 on every
    vertex class.  `table[m]` is the value on the vector whose coordinate
    mask is m (bit i of m = coordinate i)."""

    rank: int
    table: tuple[int, ...]
    gram_mod2: tuple[int, ...]  # row masks of the induced form mod 2

    def value(self, vec: Sequence[int]) -> int:
        return self.table[_mask(vec)]


#: Largest quotient rank whose refinement is tabulated: the table has
#: 2^rank entries (rank 10 at k = 4, but already 32 at k = 5).
MAX_REFINEMENT_RANK = 16


def quadratic_refinement(q: QuotientLattice) -> QuadraticRefinement:
    """Construct the refinement by assigning 1 on an F_2 basis of vertex
    classes and extending quadratically; RefinementError if some vertex
    class would get value 0, InvalidInputError if the rank exceeds
    MAX_REFINEMENT_RANK."""
    r = q.rank
    if r > MAX_REFINEMENT_RANK:
        raise InvalidInputError(
            f"quotient rank {r} exceeds the refinement limit "
            f"{MAX_REFINEMENT_RANK}: its table would need 2^{r} entries"
        )
    gram2 = tuple(_mask(row) for row in q.induced_gram)
    classes = [_mask(c) for c in q.class_map]

    # Greedy F_2 basis among the classes (vertex order); `reduced` is its
    # echelon form, sorted by lowest set bit.
    basis: list[int] = []
    reduced: list[int] = []
    for c in classes:
        v = c
        for e in reduced:
            if v & (e & -e):
                v ^= e
        if v:
            basis.append(c)
            reduced.append(v)
            reduced.sort(key=lambda e: e & -e)
    if len(basis) != r:
        raise RefinementError(f"vertex classes span rank {len(basis)} < {r} over F_2")

    # One pass over the combinations c of basis classes: with i the lowest
    # bit of c and p = c minus bit i, x(c) = x(p) + b_i and
    # q(x(c)) = q(x(p)) + 1 + <x(p), b_i>, since q = 1 on each basis class.
    paired = [_form_mask(gram2, b) for b in basis]
    xs = [0] * (1 << r)  # xs[c] = x(c), the sum of the classes in c
    table = [0] * (1 << r)
    for c in range(1, 1 << r):
        i = (c & -c).bit_length() - 1
        prev = xs[c & (c - 1)]  # x(p)
        xs[c] = prev ^ basis[i]
        table[xs[c]] = table[prev] ^ 1 ^ ((prev & paired[i]).bit_count() & 1)
    refinement = QuadraticRefinement(rank=r, table=tuple(table), gram_mod2=gram2)
    for v, c in zip(vertices(q.source.k), classes):
        if refinement.table[c] != 1:
            raise RefinementError(f"class of {vertex_str(v)} gets value 0", offending=v)
    return refinement


def refinement_identity_ok(ref: QuadraticRefinement) -> bool:
    """Exhaustively check q(x+y) = q(x) + q(y) + <x,y> over all pairs.

    It is enough to check y = e_i, each coordinate vector, against every x.
    At x = 0 that forces q(0) = 0, so the identity holds for y = 0.  If it
    holds for y and for e_i, then by bilinearity
    q(x+y+e_i) = q(x+y) + q(e_i) + <x+y, e_i> = q(x) + q(y+e_i) + <x, y+e_i>,
    using q(y+e_i) = q(y) + q(e_i) + <y, e_i>; so it holds for every y.
    The form is symmetric mod 2, so <x, e_i> is the parity of x & row i.
    """
    table = ref.table
    for i, row in enumerate(ref.gram_mod2):
        e = 1 << i
        qe = table[e]
        for x, qx in enumerate(table):
            if table[x ^ e] != qx ^ qe ^ ((x & row).bit_count() & 1):
                return False
    return True


def refinement_invariant_under(
    ref: QuadraticRefinement, q: QuotientLattice, v: Vertex
) -> bool:
    """q(T_v x) == q(x) for every vector of the mod-2 quotient."""
    a = _mask(q.class_map[_vertex_index(q, v)])
    ga = _form_mask(ref.gram_mod2, a)
    for x in range(1 << ref.rank):
        tx = x ^ a if (x & ga).bit_count() & 1 else x
        if ref.table[tx] != ref.table[x]:
            return False
    return True


# -- irreducibility and the chain parity fact ---------------------------------


def invariant_span_closure(q: QuotientLattice, seeds: Iterable[Sequence[int]]) -> int:
    """Dimension of the smallest rational subspace containing the seeds and
    invariant under every vertex transvection.

    A subspace W is invariant iff every vertex class a with <W, a> != 0 lies
    in W (the transvection moves x by a multiple of a), so the closure is
    computed by saturating that rule over a list of spanning rows.  Each
    class is added at most once; one already in W leaves the span as it is.
    """
    rows = [tuple(s) for s in seeds]
    pending = {i: la.mat_vec(q.induced_gram, a) for i, a in enumerate(q.class_map)}
    grew = True
    while grew:
        grew = False
        for i, ga in list(pending.items()):
            if any(la.vec_dot(row, ga) for row in rows):
                rows.append(q.class_map[i])
                del pending[i]
                grew = True
    return la.rank(rows)


def chain_parity_check(q: QuotientLattice) -> tuple[bool, int]:
    """The alternating chain sum s = a_0001 + a_0100 + a_0010 + a_1000:
    returns (s != 0 in the quotient, parity of <a_0111, s>)."""
    if q.source.k != 4:
        raise InvalidInputError("chain parity check is specific to k = 4")
    idx = {v: i for i, v in enumerate(vertices(q.source.k))}
    s = [0] * q.rank
    for v in [(0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0)]:
        c = q.class_map[idx[v]]
        s = [x + y for x, y in zip(s, c)]
    probe = q.class_map[idx[(0, 1, 1, 1)]]
    parity = q.pairing(probe, s) % 2
    return (not la.is_zero_vector(s), parity)


def rep_to_json_dict(q: QuotientLattice, g: ArtinGraph, sign: int = 1) -> dict:
    ref = quadratic_refinement(q)  # first: it rejects a rank too large
    ts = {v: transvection(q, v, sign) for v in vertices(q.source.k)}
    words = conjugacy_witnesses(q, g, sign=sign)
    report = verify_all_relations(q, g, sign=sign)
    return {
        "sign": sign,
        "transvections": {
            vertex_str(v): [list(r) for r in m] for v, m in ts.items()
        },
        "witness_words": {
            vertex_str(v): [vertex_str(u) for u in w] for v, w in words.items()
        },
        "relation_report": {
            "pairs_checked": report.pairs_checked,
            "triangles_checked": report.triangles_checked,
            "pair_failures": [
                [vertex_str(a), vertex_str(b), kind]
                for a, b, kind in report.pair_failures
            ],
            "triangle_failures": [
                [vertex_str(a), vertex_str(b), vertex_str(c)]
                for a, b, c in report.triangle_failures
            ],
        },
        "quadratic_refinement": list(ref.table),
    }
