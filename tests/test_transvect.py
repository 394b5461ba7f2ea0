import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import replace

import pytest
import sympy

import twistlat
from twistlat import (
    InvalidInputError,
    RefinementError,
    build_gamma,
    chain_parity_check,
    conjugacy_witnesses,
    gram_matrix,
    invariant_span_closure,
    quadratic_refinement,
    quotient_lattice,
    transvection,
    verify_all_relations,
    word_matrix,
)
from twistlat import intlinalg as la
from twistlat import transvect
from twistlat.bitgraph import ArtinGraph
from twistlat.lattice import QuotientLattice, SkewLattice
from twistlat.transvect import (
    MAX_REFINEMENT_RANK,
    QuadraticRefinement,
    preserves_form,
    refinement_identity_ok,
    refinement_invariant_under,
    transvection_shape,
    triangle_identity_expected,
)


@pytest.fixture(scope="module")
def ctx():
    g = build_gamma(4)
    q = quotient_lattice(gram_matrix(4))
    return g, q


def test_transvection_fixes_own_class(ctx):
    g, q = ctx
    for v in g.vertices:
        t = transvection(q, v)
        a = q.class_map[g.index[v]]
        assert la.mat_vec(t, a) == a


def test_transvection_shapes(ctx):
    g, q = ctx
    for sign in (1, -1):
        for v in g.vertices:
            s = transvection_shape(q, v, sign)
            assert s.ok
            assert s.deviation_rank == 1
            assert s.fixed_space_dim == 9
    # independent rank oracle on a few deviations
    for v in list(g.vertices)[:4]:
        t = transvection(q, v)
        dev = la.mat_sub(t, la.identity(10))
        assert sympy.Matrix([list(r) for r in dev]).rank() == 1


def test_form_preservation_and_guard(ctx):
    g, q = ctx
    t = transvection(q, (0, 0, 1, 1))
    m = la.mat_mul(la.mat_mul(la.transpose(t), q.induced_gram), t)
    assert m == q.induced_gram
    assert preserves_form(t, q.induced_gram)
    bad = [[2 if i == j else 0 for j in range(10)] for i in range(10)]
    assert not preserves_form(bad, q.induced_gram)


def test_pair_relation_examples(ctx):
    g, q = ctx
    u, v = (0, 0, 0, 1), (0, 1, 0, 1)
    assert g.is_edge(u, v)
    assert word_matrix(q, (u, v, u)) == word_matrix(q, (v, u, v))
    x, y = (0, 1, 0, 0), (1, 0, 1, 0)
    assert not g.is_edge(x, y)
    assert word_matrix(q, (x, y)) == word_matrix(q, (y, x))
    assert word_matrix(q, (x, y, x)) != word_matrix(q, (y, x, y))


def dense_product(q, g, word, sign):
    """The product of the dense factors I + s a u^T over the word, with
    u = G a built here from the class map and the induced form, multiplied
    by `mat_mul`."""
    n = q.rank
    m = la.identity(n)
    for v in word:
        a = q.class_map[g.index[v]]
        u = [sum(q.induced_gram[r][c] * a[c] for c in range(n)) for r in range(n)]
        m = la.mat_mul(m, [[(r == c) + sign * a[r] * u[c] for c in range(n)] for r in range(n)])
    return m


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("k", [3, 4])
def test_word_matrix_matches_dense_product(k, sign):
    """Oracle: fold dense factors I + s a u^T by plain matrix products."""
    g = build_gamma(k)
    q = quotient_lattice(gram_matrix(k))
    rng = random.Random(5)
    for length in range(7):
        for _ in range(5):
            word = tuple(rng.choice(g.vertices) for _ in range(length))
            assert word_matrix(q, word, sign) == dense_product(q, g, word, sign)
    with pytest.raises(InvalidInputError):
        word_matrix(q, (), 2)


@pytest.mark.parametrize("sign", [1, -1])
def test_all_relations(ctx, sign):
    g, q = ctx
    rep = verify_all_relations(q, g, sign=sign)
    assert rep.ok, (rep.pair_failures[:3], rep.triangle_failures[:3])
    assert rep.pairs_checked == 120
    assert rep.triangles_checked == 110


class DroppedEdgeGraph(ArtinGraph):
    """Gamma with the edge u-v missing: the checker must then expect u and v
    to commute."""

    def __init__(self, k, u, v):
        super().__init__(k)
        self.dropped = {u, v}

    def is_edge(self, a, b):
        return {a, b} != self.dropped and super().is_edge(a, b)


@pytest.mark.parametrize("sign", [1, -1])
def test_relation_checker_flags_a_dropped_edge(ctx, sign):
    g, q = ctx
    u, v = (0, 0, 0, 1), (0, 1, 0, 1)
    assert g.is_edge(u, v)
    rep = verify_all_relations(q, DroppedEdgeGraph(4, u, v), sign=sign)
    # T_u and T_v braid, so they fail to commute and braid on a non-edge
    assert rep.pair_failures == [(u, v, "commute"), (u, v, "braid-on-non-edge")]
    assert rep.pairs_checked == 120
    assert rep.triangle_failures == []
    # the triangles through the edge u-v are no longer triangles
    through = sum(1 for w in g.vertices if g.is_edge(u, w) and g.is_edge(v, w))
    assert rep.triangles_checked == 110 - through


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize(
    "k, dropped",
    [
        pytest.param(3, None, id="None"),
        pytest.param(3, ((0, 0, 0), (0, 1, 1)), id="dropped1"),
        pytest.param(2, None, id="k2"),
    ],
)
def test_relation_report_matches_dense_oracle(sign, k, dropped):
    """Every pair verdict and every triangle ordering at k = 3 and k = 2,
    recomputed with dense factors I + s a u^T multiplied by `mat_mul`.  At
    k = 2 the two middle vertex classes coincide, so the braid-on-non-edge
    guard skips that pair."""
    q = quotient_lattice(gram_matrix(k))
    g = DroppedEdgeGraph(k, *dropped) if dropped else build_gamma(k)
    ts = {v: dense_product(q, g, (v,), sign) for v in g.vertices}

    def same(lhs, rhs):
        return dense_product(q, g, lhs, sign) == dense_product(q, g, rhs, sign)

    pair_failures, triangle_failures, triangles = [], [], 0
    for u, v in itertools.combinations(g.vertices, 2):
        edge = g.is_edge(u, v)
        if edge and not same((u, v, u), (v, u, v)):
            pair_failures.append((u, v, "braid"))
        if not edge and not same((u, v), (v, u)):
            pair_failures.append((u, v, "commute"))
        if not edge and ts[u] != ts[v] and same((u, v, u), (v, u, v)):
            pair_failures.append((u, v, "braid-on-non-edge"))
    for tri in itertools.combinations(g.vertices, 3):
        if not all(g.is_edge(a, b) for a, b in itertools.combinations(tri, 2)):
            continue
        triangles += 1
        holds = [same((x, y, z, x), (y, z, x, y)) for x, y, z in itertools.permutations(tri)]
        if sum(holds) != 3:
            triangle_failures.append(tri)
        for (x, y, z), h in zip(itertools.permutations(tri), holds):
            if h != triangle_identity_expected(q, x, y, z, sign):
                triangle_failures.append((x, y, z))

    rep = verify_all_relations(q, g, sign=sign)
    assert rep.pair_failures == pair_failures
    assert rep.pairs_checked == math.comb(2**k, 2)
    assert rep.triangles_checked == triangles
    assert rep.triangle_failures == triangle_failures
    if dropped:
        assert pair_failures, "the oracle must see the dropped edge"


@pytest.mark.parametrize("sign", [1, -1])
def test_relation_memo_stays_small(ctx, sign):
    """One call keeps its table of two-letter products and the longer words
    of one pair or one triangle at a time; keeping every word's product
    would peak near 2 MB."""
    g, q = ctx
    verify_all_relations(q, g, sign=sign)  # build the cached letter tables first
    tracemalloc.start()
    try:
        verify_all_relations(q, g, sign=sign)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25e6


@pytest.mark.parametrize("sign", [1, -1])
def test_relation_checks_make_1800_rank_one_updates(ctx, monkeypatch, sign):
    """At k = 4: one for each of the 240 two-letter products, two for each
    of the 120 pairs' braid words, and 12 for each of the 110 triangles'
    four-letter words."""
    g, q = ctx
    verify_all_relations(q, g, sign=sign)  # build the cached transvections first
    times_letter, calls = transvect._times_letter, []

    def counted_times_letter(m, letter):
        calls.append(letter)
        return times_letter(m, letter)

    monkeypatch.setattr(transvect, "_times_letter", counted_times_letter)
    verify_all_relations(q, g, sign=sign)
    assert len(calls) == 1_800


def test_word_matrix_rejects_non_vertices(ctx):
    _, q = ctx
    assert word_matrix(q, [[0, 0, 0, 1]]) == transvection(q, (0, 0, 0, 1))
    for bad in ((0, 0, 2, 0), (0, 0, 0), ([0], 1, 0, 0)):
        with pytest.raises(InvalidInputError, match="not a vertex"):
            word_matrix(q, (bad,))


def test_all_transvections_distinct(ctx):
    g, q = ctx
    mats = {transvection(q, v) for v in g.vertices}
    assert len(mats) == 16


def test_k2_collapsed_generators_still_consistent():
    """In the rank-2 quotient of the k=2 lattice the two middle vertices
    have equal classes, so their transvections coincide; the relation
    checker must treat that pair as consistent."""
    g = build_gamma(2)
    q = quotient_lattice(gram_matrix(2))
    t01 = transvection(q, (0, 1))
    t10 = transvection(q, (1, 0))
    assert t01 == t10
    assert not g.is_edge((0, 1), (1, 0))
    rep = verify_all_relations(q, g, sign=1)
    assert rep.ok


def test_triangle_orientation_rule(ctx):
    """Direct mini-oracle: the four-letter identity holds exactly in the
    orientation class where the signed pairings multiply to -sign."""
    g, q = ctx
    tri = ((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 1))
    ts = {v: transvection(q, v) for v in tri}
    for x, y, z in itertools.permutations(tri):
        lhs = la.mat_mul(la.mat_mul(ts[x], ts[y]), la.mat_mul(ts[z], ts[x]))
        rhs = la.mat_mul(la.mat_mul(ts[y], ts[z]), la.mat_mul(ts[x], ts[y]))
        assert (lhs == rhs) == triangle_identity_expected(q, x, y, z, 1)
    # each orientation class has exactly three orderings
    flags = [
        triangle_identity_expected(q, x, y, z, 1)
        for x, y, z in itertools.permutations(tri)
    ]
    assert sum(flags) == 3


def test_form_check_survives_python_O():
    """A transvection that fails the form check still raises under -O."""
    code = textwrap.dedent(
        """
        from twistlat import gram_matrix, quotient_lattice, transvect

        assert False, "assert statements must be stripped"
        transvect.preserves_form = lambda m, gram: False
        try:
            transvect.transvection(quotient_lattice(gram_matrix(2)), (0, 1))
        except AssertionError as exc:
            print("raised:", exc)
        else:
            print("returned")
        """
    )
    src = os.path.dirname(os.path.dirname(twistlat.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised: transvection of 01 breaks the form"


def test_conjugacy_witnesses(ctx):
    g, q = ctx
    words = conjugacy_witnesses(q, g)
    assert len(words) == 16
    assert words[(0, 0, 0, 0)] == ()
    # every word is verified inside the call; check the edge identity here
    u, v = (0, 0, 0, 0), (0, 0, 0, 1)
    tu, tv = transvection(q, u), transvection(q, v)
    tui = transvection(q, u, -1)
    tvi = transvection(q, v, -1)
    c = la.mat_mul(tu, tv)
    cinv = la.mat_mul(tvi, tui)
    assert la.mat_mul(la.mat_mul(c, tu), cinv) == tv


def test_quadratic_refinement(ctx):
    g, q = ctx
    ref = quadratic_refinement(q)
    assert ref.table[0] == 0
    for c in q.class_map:
        assert ref.value(c) == 1
    assert refinement_identity_ok(ref)
    for v in g.vertices:
        assert refinement_invariant_under(ref, q, v)


def _bits(m: int, n: int) -> list[int]:
    return [(m >> i) & 1 for i in range(n)]


def test_quadratic_refinement_random_identity_samples(ctx):
    """Sampled pairs against <x, y> mod 2 computed from the integer form."""
    _, q = ctx
    ref = quadratic_refinement(q)
    rng = random.Random(11)
    for _ in range(300):
        x = rng.randrange(1024)
        y = rng.randrange(1024)
        gy = la.mat_vec(q.induced_gram, _bits(y, q.rank))
        pairing = la.vec_dot(_bits(x, q.rank), gy) % 2
        assert ref.table[x ^ y] == ref.table[x] ^ ref.table[y] ^ pairing


def _identity_holds_all_pairs(ref: QuadraticRefinement) -> bool:
    """q(x+y) = q(x) + q(y) + <x,y> for every pair, by brute force."""
    size = 1 << ref.rank
    # gy[y] is the coordinate mask of G y mod 2, so <x, y> = parity(x & gy[y])
    gy = [
        sum(1 << i for i, row in enumerate(ref.gram_mod2) if (row & y).bit_count() & 1)
        for y in range(size)
    ]
    return all(
        ref.table[x ^ y] == ref.table[x] ^ ref.table[y] ^ ((x & gy[y]).bit_count() & 1)
        for x in range(size)
        for y in range(size)
    )


def test_refinement_identity_rejects_every_single_flip():
    ref = quadratic_refinement(quotient_lattice(gram_matrix(3)))
    assert ref.rank == 8 and refinement_identity_ok(ref)
    for m in range(1 << ref.rank):
        table = list(ref.table)
        table[m] ^= 1
        assert not refinement_identity_ok(replace(ref, table=tuple(table))), m


def _random_refinement(rng: random.Random, rank: int) -> QuadraticRefinement:
    """A random alternating form mod 2, and a refinement of it that takes
    arbitrary values on the coordinate vectors and is extended to every
    vector through the identity."""
    gram = [0] * rank
    for i in range(rank):
        for j in range(i + 1, rank):
            if rng.randrange(2):
                gram[i] |= 1 << j
                gram[j] |= 1 << i
    table = [0] * (1 << rank)
    for m in range(1, 1 << rank):
        i = (m & -m).bit_length() - 1
        rest = m ^ (1 << i)
        if rest:
            table[m] = table[rest] ^ table[1 << i] ^ ((rest & gram[i]).bit_count() & 1)
        else:
            table[m] = rng.randrange(2)
    return QuadraticRefinement(rank=rank, table=tuple(table), gram_mod2=tuple(gram))


def test_refinement_identity_matches_all_pairs_oracle():
    rng = random.Random(7)
    for trial in range(60):
        rank = rng.randrange(1, 9) if trial else 8
        ref = _random_refinement(rng, rank)
        assert refinement_identity_ok(ref) and _identity_holds_all_pairs(ref)
        table = list(ref.table)
        for m in rng.sample(range(len(table)), min(len(table), rng.randrange(1, 4))):
            table[m] ^= 1
        flipped = replace(ref, table=tuple(table))
        assert refinement_identity_ok(flipped) == _identity_holds_all_pairs(flipped)
        # two refinements of one form differ by a linear functional, which is
        # 1 on 2^(rank-1) vectors: from rank 3 up, more than the 1-3 flipped
        if rank >= 3:
            assert not refinement_identity_ok(flipped)


def test_refinement_rank_guard():
    """The table has 2^rank entries: rank 10 (k = 4) is tabulated, rank 32
    (k = 5) is refused before anything is allocated."""
    assert 10 <= MAX_REFINEMENT_RANK < 32
    q = quotient_lattice(gram_matrix(5))
    assert q.rank == 32
    with pytest.raises(InvalidInputError, match="rank 32"):
        quadratic_refinement(q)


#: Two orthogonal hyperbolic planes, spanned by e1, e2 and by e3, e4.
_J4 = (
    (0, 1, 0, 0),
    (-1, 0, 0, 0),
    (0, 0, 0, 1),
    (0, 0, -1, 0),
)


def test_refinement_failure_paths():
    # classes that do not span the mod-2 quotient
    j2 = ((0, 1), (-1, 0))
    fake = QuotientLattice(
        source=SkewLattice(k=1, gram=j2),
        rank=2,
        induced_gram=j2,
        class_map=((1, 0), (1, 0)),
        radical_basis=(),
    )
    with pytest.raises(RefinementError):
        quadratic_refinement(fake)
    # a dependent class forced to value 0: e1+e3 with <e1,e3> = 0
    classes = (
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (1, 0, 1, 0),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
    )
    fake = QuotientLattice(
        source=SkewLattice(k=3, gram=tuple(tuple(0 for _ in range(8)) for _ in range(8))),
        rank=4,
        induced_gram=_J4,
        class_map=classes,
        radical_basis=(),
    )
    with pytest.raises(RefinementError) as err:
        quadratic_refinement(fake)
    assert err.value.offending is not None


def test_invariant_span_closure(ctx):
    g, q = ctx
    assert invariant_span_closure(q, [(0,) * 10]) == 0
    assert invariant_span_closure(q, q.class_map) == 10
    for v in g.vertices:
        assert invariant_span_closure(q, [q.class_map[g.index[v]]]) == 10


def test_invariant_span_closure_on_a_reducible_form():
    """On two orthogonal hyperbolic planes with the coordinate vectors as
    classes, a seed in one plane closes to that plane, and a seed meeting
    both closes to the whole space."""
    q = QuotientLattice(
        source=SkewLattice(k=2, gram=tuple(tuple(0 for _ in range(4)) for _ in range(4))),
        rank=4,
        induced_gram=_J4,
        class_map=la.identity(4),
        radical_basis=(),
    )
    assert invariant_span_closure(q, [(1, 0, 0, 0)]) == 2
    assert invariant_span_closure(q, [(1, 0, 1, 0)]) == 4
    assert invariant_span_closure(q, [(0, 0, 0, 0)]) == 0


def test_chain_parity(ctx):
    g, q = ctx
    nonzero, parity = chain_parity_check(q)
    assert nonzero is True
    assert parity == 1
    # supporting fact: the probe class does not pair with the sixth chain slot
    from twistlat import hl_pairing

    assert hl_pairing((0, 1, 1, 1), (1, 0, 1, 0)) == 0


def test_chain_parity_requires_k4():
    q = quotient_lattice(gram_matrix(2))
    with pytest.raises(InvalidInputError):
        chain_parity_check(q)


def test_determinism_of_rep(ctx):
    g, q = ctx
    a = verify_all_relations(q, g, sign=1)
    b = verify_all_relations(q, g, sign=1)
    assert a.pairs_checked == b.pairs_checked
    assert conjugacy_witnesses(q, g) == conjugacy_witnesses(q, g)
