"""Integer symplectic transvections attached to the graph vertices.

Each vertex class a (from the quotient lattice) acts on the quotient by
x -> x + s*<x, a>*a with s = +1 or -1; the resulting matrices preserve the
induced form exactly.  The checks in this module mechanize, at the matrix
level, the group-theoretic facts used downstream: braid/commutation for
every vertex pair, the four-letter relation on triangles, explicit
conjugating words along a spanning tree, invariance of a quadratic
refinement of the mod-2 pairing, irreducibility as invariant-subspace
closure, and the mod-2 non-degeneracy of the alternating chain sum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from . import intlinalg as la
from .bitgraph import ArtinGraph, Vertex, vertex_str
from .errors import InvalidInputError, RefinementError
from .lattice import QuotientLattice


@dataclass(frozen=True)
class SpMatrix:
    """Integer matrix preserving the induced skew form, with optional
    provenance word (vertex labels, leftmost factor first)."""

    entries: la.IntMatrix
    word: Optional[tuple[Vertex, ...]] = None

    def __matmul__(self, other: "SpMatrix") -> "SpMatrix":
        w = None
        if self.word is not None and other.word is not None:
            w = self.word + other.word
        return SpMatrix(la.mat_mul(self.entries, other.entries), w)

    def __eq__(self, other) -> bool:
        return isinstance(other, SpMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)


def _vertices(q: QuotientLattice) -> tuple[Vertex, ...]:
    return tuple(itertools.product((0, 1), repeat=q.source.k))


def _vertex_index(q: QuotientLattice, v: Vertex) -> int:
    verts = _vertices(q)
    try:
        return verts.index(tuple(v))
    except ValueError:
        raise InvalidInputError(f"not a vertex of this lattice: {v!r}") from None


def preserves_form(entries: Sequence[Sequence[int]], gram: la.IntMatrix) -> bool:
    m = la.freeze(entries)
    return la.mat_mul(la.mat_mul(la.transpose(m), gram), m) == gram


def sp_matrix(q: QuotientLattice, entries, word=None) -> SpMatrix:
    m = la.freeze(entries)
    if not preserves_form(m, q.induced_gram):
        raise InvalidInputError("matrix does not preserve the induced form")
    return SpMatrix(m, word)


def transvection(q: QuotientLattice, v: Vertex, sign: int = 1) -> SpMatrix:
    """Matrix of x -> x + sign*<x, a_v>*a_v in quotient coordinates."""
    if sign not in (1, -1):
        raise InvalidInputError("sign must be +1 or -1")
    i = _vertex_index(q, v)
    a = q.class_map[i]
    u = la.mat_vec(q.induced_gram, a)  # <x, a> = x . u
    n = q.rank
    entries = tuple(
        tuple((1 if r == c else 0) + sign * a[r] * u[c] for c in range(n))
        for r in range(n)
    )
    if not preserves_form(entries, q.induced_gram):
        raise AssertionError(f"transvection of {vertex_str(v)} breaks the form")
    return SpMatrix(entries, word=(tuple(v),))


def transvection_inverse(q: QuotientLattice, v: Vertex, sign: int = 1) -> SpMatrix:
    return transvection(q, v, -sign)


def all_transvections(q: QuotientLattice, sign: int = 1) -> dict[Vertex, SpMatrix]:
    return {v: transvection(q, v, sign) for v in _vertices(q)}


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
    dev = la.mat_sub(t.entries, la.identity(n))
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


def verify_pair_relation(a: SpMatrix, b: SpMatrix, expect_braid: bool) -> bool:
    """ABA == BAB when a braid is expected, AB == BA otherwise."""
    if expect_braid:
        lhs = la.mat_mul(la.mat_mul(a.entries, b.entries), a.entries)
        rhs = la.mat_mul(la.mat_mul(b.entries, a.entries), b.entries)
    else:
        lhs = la.mat_mul(a.entries, b.entries)
        rhs = la.mat_mul(b.entries, a.entries)
    return lhs == rhs


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
    signed pairings multiply to -1 around the triangle)."""
    verts = _vertices(q)
    if verts != g.vertices:
        raise InvalidInputError("graph and lattice have different vertex sets")
    ts = {v: transvection(q, v, sign) for v in verts}
    report = RelationReport(sign=sign)
    n = len(verts)
    for i in range(n):
        for j in range(i + 1, n):
            u, v = verts[i], verts[j]
            edge = g.is_edge(u, v)
            if not verify_pair_relation(ts[u], ts[v], expect_braid=edge):
                report.pair_failures.append((u, v, "braid" if edge else "commute"))
            # distinct commuting transvections must not also braid (equal
            # matrices satisfy both; that happens only in degenerate small
            # quotients where two vertex classes coincide, never for k = 4)
            if (
                not edge
                and ts[u] != ts[v]
                and verify_pair_relation(ts[u], ts[v], expect_braid=True)
            ):
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
                    xy = la.mat_mul(ts[x].entries, ts[y].entries)
                    yz = la.mat_mul(ts[y].entries, ts[z].entries)
                    zx = la.mat_mul(ts[z].entries, ts[x].entries)
                    holds = la.mat_mul(xy, zx) == la.mat_mul(yz, xy)
                    if holds != expected:
                        report.triangle_failures.append((x, y, z))
                report.triangles_checked += 1
    return report


def conjugacy_witnesses(
    q: QuotientLattice, g: ArtinGraph, root: Vertex | None = None, sign: int = 1
) -> dict[Vertex, tuple[Vertex, ...]]:
    """For each vertex v, a word w (generator vertices, leftmost factor
    first) with M(w) T_root M(w)^-1 == T_v, built over a BFS spanning tree
    from the braid identity (T_u T_v) T_u (T_u T_v)^-1 = T_v.

    Every witness is verified by exact multiplication before returning.
    """
    verts = _vertices(q)
    if root is None:
        root = verts[0]
    root = tuple(root)
    ts = {v: transvection(q, v, sign) for v in verts}
    inv = {v: transvection_inverse(q, v, sign) for v in verts}
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

    def word_matrix(word: Sequence[Vertex], inverse: bool = False) -> la.IntMatrix:
        m = la.identity(q.rank)
        factors = (
            [inv[v].entries for v in reversed(word)]
            if inverse
            else [ts[v].entries for v in word]
        )
        for f in factors:
            m = la.mat_mul(m, f)
        return m

    t_root = ts[root].entries
    for v, word in words.items():
        mw = word_matrix(word)
        mw_inv = word_matrix(word, inverse=True)
        if la.mat_mul(mw, mw_inv) != la.identity(q.rank):
            raise AssertionError("word inverse failed")
        if la.mat_mul(la.mat_mul(mw, t_root), mw_inv) != ts[v].entries:
            raise AssertionError(f"witness for {vertex_str(v)} failed verification")
    return words


# -- quadratic refinement over F_2 -------------------------------------------


def _mask(vec: Sequence[int]) -> int:
    m = 0
    for i, x in enumerate(vec):
        if x & 1:
            m |= 1 << i
    return m


def _pairing_mod2(gram_mod2: Sequence[int], x: int, y: int) -> int:
    """<x, y> mod 2 for coordinate masks x, y and the form's row masks."""
    acc = 0
    while y:
        b = y & -y
        acc ^= (gram_mod2[b.bit_length() - 1] & x).bit_count() & 1
        y ^= b
    return acc


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

    def pairing_mod2(self, x: int, y: int) -> int:
        return _pairing_mod2(self.gram_mod2, x, y)


def quadratic_refinement(q: QuotientLattice) -> QuadraticRefinement:
    """Construct the refinement by assigning 1 on an F_2 basis of vertex
    classes and extending quadratically; RefinementError if some vertex
    class would get value 0."""
    r = q.rank
    gram2 = tuple(_mask(row) for row in q.induced_gram)
    classes = [_mask(c) for c in q.class_map]

    # Greedy F_2 basis among the classes (vertex order), with combination
    # tracking so any vector decomposes over the chosen basis.
    basis: list[int] = []
    ech: list[tuple[int, int]] = []  # (reduced vector, combo over basis)
    for c in classes:
        v, combo = c, 0
        for evec, ecombo in ech:
            if v & (evec & -evec):
                v ^= evec
                combo ^= ecombo
        if v:
            combo ^= 1 << len(basis)
            basis.append(c)
            ech.append((v, combo))
            ech.sort(key=lambda t: t[0] & -t[0])
    if len(basis) != r:
        raise RefinementError(f"vertex classes span rank {len(basis)} < {r} over F_2")

    def decompose(m: int) -> int:
        v, combo = m, 0
        for evec, ecombo in ech:
            if v & (evec & -evec):
                v ^= evec
                combo ^= ecombo
        if v:
            raise AssertionError("vector outside the span of the F_2 basis")
        return combo

    table = [0] * (1 << r)
    for m in range(1 << r):
        combo = decompose(m)
        members = [basis[i] for i in range(len(basis)) if (combo >> i) & 1]
        val = len(members) & 1  # q = 1 on each basis class
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                val ^= _pairing_mod2(gram2, members[i], members[j])
        table[m] = val
    refinement = QuadraticRefinement(rank=r, table=tuple(table), gram_mod2=gram2)
    for v, c in zip(_vertices(q), classes):
        if refinement.table[c] != 1:
            raise RefinementError(f"class of {vertex_str(v)} gets value 0", offending=v)
    return refinement


def _bit_tables(rank: int) -> tuple[list[int], int]:
    """Per-coordinate position masks: q_b has bit x set iff bit b of x is set."""
    size = 1 << rank
    full = (1 << size) - 1
    tables = []
    for b in range(rank):
        m = 0
        for x in range(size):
            if (x >> b) & 1:
                m |= 1 << x
        tables.append(m)
    return tables, full


def refinement_identity_ok(ref: QuadraticRefinement) -> bool:
    """Exhaustively check q(x+y) = q(x) + q(y) + <x,y> over all pairs.

    The table is packed into one big integer (bit x = q(x)); for each y the
    shuffled table q(x^y) is produced by coordinate swaps, so the whole
    check is ~rank big-integer operations per y.
    """
    r = ref.rank
    size = 1 << r
    pos, full = _bit_tables(r)
    tm = 0
    for x in range(size):
        if ref.table[x]:
            tm |= 1 << x
    # parity masks: bit x of pm[m] = parity(popcount(x & m))
    pm_cache: dict[int, int] = {0: 0}

    def parity_mask(m: int) -> int:
        if m in pm_cache:
            return pm_cache[m]
        b = m & -m
        res = parity_mask(m ^ b) ^ pos[b.bit_length() - 1]
        pm_cache[m] = res
        return res

    for y in range(size):
        shifted = tm
        yy = y
        b = 0
        while yy:
            if yy & 1:
                step = 1 << b
                lo = ~pos[b] & full
                shifted = ((shifted & lo) << step) | ((shifted >> step) & lo)
            yy >>= 1
            b += 1
        gy = 0
        for i in range(r):
            if (ref.gram_mod2[i] & y).bit_count() & 1:
                gy |= 1 << i
        expect = shifted ^ tm ^ parity_mask(gy)
        if ref.table[y]:
            expect ^= full
        if expect != 0:
            return False
    return True


def refinement_invariant_under(
    ref: QuadraticRefinement, q: QuotientLattice, v: Vertex
) -> bool:
    """q(T_v x) == q(x) for every vector of the mod-2 quotient."""
    a = _mask(q.class_map[_vertex_index(q, v)])
    ga = 0
    for i in range(ref.rank):
        if (ref.gram_mod2[i] & a).bit_count() & 1:
            ga |= 1 << i
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
    computed by saturating that rule.
    """
    space = la.RowSpace(q.rank)
    for s in seeds:
        space.add(s)
    changed = True
    while changed:
        changed = False
        for a in q.class_map:
            if space.contains(a):
                continue
            ga = la.mat_vec(q.induced_gram, a)
            if any(la.vec_dot(row, ga) != 0 for row in space.rows()):
                space.add(a)
                changed = True
    return space.rank


def chain_parity_check(q: QuotientLattice) -> tuple[bool, int]:
    """The alternating chain sum s = a_0001 + a_0100 + a_0010 + a_1000:
    returns (s != 0 in the quotient, parity of <a_0111, s>)."""
    if q.source.k != 4:
        raise InvalidInputError("chain parity check is specific to k = 4")
    verts = _vertices(q)
    idx = {v: i for i, v in enumerate(verts)}
    s = [0] * q.rank
    for v in [(0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0)]:
        c = q.class_map[idx[v]]
        s = [x + y for x, y in zip(s, c)]
    probe = q.class_map[idx[(0, 1, 1, 1)]]
    parity = q.pairing(probe, s) % 2
    return (not la.is_zero_vector(s), parity)


def rep_to_json_dict(q: QuotientLattice, g: ArtinGraph, sign: int = 1) -> dict:
    ts = all_transvections(q, sign)
    words = conjugacy_witnesses(q, g, sign=sign)
    report = verify_all_relations(q, g, sign=sign)
    ref = quadratic_refinement(q)
    return {
        "sign": sign,
        "transvections": {
            vertex_str(v): [list(r) for r in m.entries] for v, m in ts.items()
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
