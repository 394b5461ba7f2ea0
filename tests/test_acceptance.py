"""Acceptance suite: one test per exit criterion, each printing PASS/FAIL
lines for its sub-checks.

Two stated values are refuted by exact computation, and the tests check the
computed facts instead (README, "Computed deviations from the stated
values"): the 14 non-extremal classes span rank 9, not 10, checked against
a Gram matrix built here from the Sebastiani-Thom tensor product of A2
Seifert forms; and the twelve-curve pattern alone embeds within genus 5
(pattern-only minimum 4), while with the ten-curve tight placement pinned
it exceeds genus 5 after exhaustion.  The end-to-end scoreboard checks the
same facts and exits 0.
"""

import itertools
import json
import random
import time

import pytest

from twistlat import (
    AFFINE_CYCLE,
    BR8_CHAIN,
    build_gamma,
    chain_parity_check,
    conjugacy_witnesses,
    f2_genus_lower_bound,
    gram_matrix,
    invariant_span_closure,
    is_realizable,
    make_pattern,
    min_genus,
    naive_min_genus,
    quadratic_refinement,
    quotient_lattice,
    sublattice_rank,
    subpattern,
    surface_of,
    verify_all_relations,
)
from twistlat.bitgraph import no_opposite_pair
from twistlat.builtin import load_pattern, load_structure
from twistlat.cli import main as cli_main
from twistlat.patterns import relabel
from twistlat.ribbon import validate_structure
from twistlat.transvect import (
    refinement_identity_ok,
    refinement_invariant_under,
    transvection_shape,
)


def line(tag: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")
    return ok


def f2_rank_elimination(rows):
    """Independent mod-2 elimination oracle."""
    m = [[x % 2 for x in row] for row in rows]
    rank, cols = 0, len(m[0]) if m else 0
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


# -- criterion 1: graph suite ---------------------------------------------------


def test_c1_graph_suite():
    t0 = time.time()
    g = build_gamma(4)
    ok = line(
        "c1 gamma(4) size",
        len(g.vertices) == 16 and len(g.edges) == 65,
        f"{len(g.vertices)} vertices, {len(g.edges)} edges",
    )
    # oracle: exhaustive pair scan
    scan = sum(
        1
        for u, v in itertools.combinations(g.vertices, 2)
        if all(
            (a - c) * (b - d) >= 0
            for (a, b), (c, d) in itertools.combinations(list(zip(u, v)), 2)
        )
    )
    ok &= line("c1 pair-scan oracle", scan == 65, f"scan counts {scan}")
    ext = g.extremal_vertices()
    ok &= line(
        "c1 extremal",
        set(ext) == {(0, 0, 0, 0), (1, 1, 1, 1)}
        and all(g.degree(v) == 15 for v in ext),
        "2 extremal vertices of degree 15",
    )
    agree = True
    for k in (1, 2, 3, 4, 5):
        gk = build_gamma(k)
        agree &= all(
            gk.is_edge(u, v) == no_opposite_pair(u, v)
            for u, v in itertools.combinations(gk.vertices, 2)
        )
    ok &= line("c1 edge-rule agreement", agree, "both formulations, k <= 5")
    g3 = build_gamma(3)
    ok &= line(
        "c1 gamma(3) shape",
        len(g3.vertices) == 8 and len(g3.edges) == 19,
        f"{len(g3.vertices)} vertices, {len(g3.edges)} edges",
    )
    print(f"c1 wall time {time.time() - t0:.2f}s (budget 1s)")
    assert ok


# -- criterion 2: lattice suite --------------------------------------------------


def test_c2_lattice_suite():
    t0 = time.time()
    lat = gram_matrix(4)
    q = quotient_lattice(lat)
    ok = line(
        "c2 ranks",
        lat.rank() == 10 and len(q.radical_basis) == 6,
        f"gram rank {lat.rank()}, radical rank {len(q.radical_basis)}",
    )
    pair_ok = all(
        q.pairing(q.class_map[i], q.class_map[j]) == lat.gram[i][j]
        for i in range(16)
        for j in range(16)
    )
    ok &= line("c2 quotient pairing", pair_ok, "all 120 pairs reproduce the Gram matrix")
    det = q.determinant()
    ok &= line("c2 unimodularity", abs(det) == 1, f"induced determinant {det}")
    print(f"c2 wall time {time.time() - t0:.2f}s (budget 1s)")
    assert ok


def test_c2_nonextremal_span_rank():
    """The 14 non-extremal classes span rank 9 of the rank-10 quotient.

    Oracle independent of `hl_pairing`: by Sebastiani-Thom, the Seifert
    form of x1^3 + ... + x4^3 is the 4-fold tensor power T of the A2 Seifert
    form V = [[1, 0], [-1, 1]], and the intersection form is T - T^t.  Its
    radical contains the rectangle relation
    a_0011 - a_0110 - a_1001 + a_1100, supported on non-extremal vertices,
    so the non-extremal column block has rank 9, not the stated 10.
    """
    sympy = pytest.importorskip("sympy")
    v = sympy.Matrix([[1, 0], [-1, 1]])
    seifert = sympy.kronecker_product(v, v, v, v)
    oracle = seifert - seifert.T
    lat = gram_matrix(4)
    ok = line(
        "c2 Seifert oracle",
        sympy.Matrix(lat.gram) == oracle and oracle.rank() == 10,
        "gram_matrix(4) equals T - T^t for T = V^(x4), rank 10",
    )
    g = build_gamma(4)
    q = quotient_lattice(lat)
    non_ext = [i for i, vert in enumerate(g.vertices) if not g.is_extremal(vert)]
    span = sublattice_rank(q, non_ext)
    block_rank = oracle[:, non_ext].rank()
    ok &= line(
        "c2 non-extremal span",
        span == block_rank == 9,
        f"sublattice rank {span}, oracle column-block rank {block_rank}",
    )
    rect = sympy.zeros(16, 1)
    for bits, coeff in (("0011", 1), ("0110", -1), ("1001", -1), ("1100", 1)):
        rect[int(bits, 2)] = coeff
    ok &= line(
        "c2 rectangle relation",
        (oracle * rect).is_zero_matrix,
        "a_0011 - a_0110 - a_1001 + a_1100 lies in the radical",
    )
    assert ok


# -- criterion 3: representation suite --------------------------------------------


def test_c3_representation_suite():
    t0 = time.time()
    g = build_gamma(4)
    q = quotient_lattice(gram_matrix(4))
    ok = True
    for sign in (1, -1):
        rep = verify_all_relations(q, g, sign=sign)
        ok &= line(
            f"c3 relations sign={sign:+d}",
            rep.ok and rep.pairs_checked == 120 and rep.triangles_checked == 110,
            f"{rep.pairs_checked} pairs, {rep.triangles_checked} triangles",
        )
        shapes = [transvection_shape(q, v, sign) for v in g.vertices]
        ok &= line(
            f"c3 transvection shape sign={sign:+d}",
            all(s.ok for s in shapes),
            "rank(T-I)=1, (T-I)^2=0, primitive direction, fixed dim 9",
        )
        words = conjugacy_witnesses(q, g, sign=sign)
        ok &= line(
            f"c3 conjugacy witnesses sign={sign:+d}",
            len(words) == 16,
            "all 16 words verified by multiplication",
        )
    ref = quadratic_refinement(q)
    ok &= line(
        "c3 refinement values",
        all(ref.value(c) == 1 for c in q.class_map),
        "q = 1 on all 16 classes",
    )
    ok &= line(
        "c3 refinement identity",
        refinement_identity_ok(ref),
        "q(x+y)=q(x)+q(y)+<x,y> over all 1024^2 pairs",
    )
    ok &= line(
        "c3 refinement invariance",
        all(refinement_invariant_under(ref, q, v) for v in g.vertices),
        "q(T_v x) = q(x) for all 16 generators, all 1024 vectors",
    )
    ok &= line(
        "c3 irreducibility",
        all(
            invariant_span_closure(q, [q.class_map[g.index[v]]]) == 10
            for v in g.vertices
        ),
        "closure from every generator direction = 10",
    )
    nonzero, parity = chain_parity_check(q)
    ok &= line(
        "c3 chain parity",
        nonzero and parity == 1,
        f"nonzero={nonzero}, parity={parity}",
    )
    print(f"c3 wall time {time.time() - t0:.2f}s (budget 5s)")
    assert ok


# -- criterion 4: chain suite -------------------------------------------------------


def test_c4_chain_suite():
    t0 = time.time()
    g = build_gamma(4)
    ok = line(
        "c4 seven-chain",
        g.verify_chain(BR8_CHAIN).is_chain,
        "canonical chain is induced",
    )
    ok &= line(
        "c4 affine cycle",
        g.verify_induced_cycle(AFFINE_CYCLE),
        "closing vertex gives an induced 8-cycle",
    )
    wit = {v: g.commuting_partner_witness(BR8_CHAIN, v) for v in g.vertices}
    ok &= line(
        "c4 commuting partners",
        all(
            (wit[v] is not None) == (not g.is_extremal(v)) for v in g.vertices
        ),
        "witnesses for the 14 non-extremal vertices, none for extremal",
    )
    print(f"c4 wall time {time.time() - t0:.2f}s (budget 1s)")
    assert ok


# -- criterion 5: realizability, small ------------------------------------------------


def _random_pattern(rng, max_crossings=8):
    while True:
        n = rng.randrange(2, 7)
        labs = [chr(ord("a") + i) for i in range(n)]
        pairs = list(itertools.combinations(labs, 2))
        rng.shuffle(pairs)
        chosen = pairs[: rng.randrange(1, max_crossings + 1)]
        deg = {l: sum(1 for x in chosen if l in x) for l in labs}
        keep = [l for l in labs if deg[l] > 0]
        if len(keep) < 2:
            continue
        p = make_pattern(
            keep, [(a, b) for a, b in chosen if a in keep and b in keep]
        )
        if len(p.crossings()) <= max_crossings:
            return p


def test_c5_realizability_small():
    t0 = time.time()
    pair = make_pattern(["x", "y"], [("x", "y")])
    r = min_genus(pair, budget=5)
    ok = line("c5 pair", (r.kind, r.genus) == ("exact", 1), f"min genus {r.genus}")

    chain = load_pattern("chain7")
    ng, _ = naive_min_genus(chain)  # full enumeration
    r = min_genus(chain, budget=5)
    ok &= line(
        "c5 chain",
        ng == 3 and (r.kind, r.genus) == ("exact", 3),
        f"full enumeration {ng}, search {r.genus}",
    )

    twelve = load_pattern("curves12")
    bounds = (
        f2_genus_lower_bound(pair),
        f2_genus_lower_bound(chain),
        f2_genus_lower_bound(twelve),
    )
    oracle = tuple(
        (f2_rank_elimination(p.inter) + 1) // 2 for p in (pair, chain, twelve)
    )
    ok &= line(
        "c5 homology bounds",
        bounds == oracle == (1, 3, 4),
        f"bounds {bounds} match independent elimination {oracle} "
        "(the twelve-curve matrix has rank 8 over F2; its rank over Q is 10)",
    )

    rng = random.Random(2026)
    agree = True
    for _ in range(50):
        p = _random_pattern(rng)
        ng, _ = naive_min_genus(p)
        if min_genus(p).genus != ng:
            agree = False
            break
    ok &= line("c5 oracle equivalence", agree, "50 random patterns <= 8 crossings")

    two = make_pattern(
        ["a", "b", "c", "x", "y"],
        [("a", "b"), ("b", "c"), ("a", "c"), ("x", "y")],
    )
    parts = [subpattern(two, ["a", "b", "c"]), subpattern(two, ["x", "y"])]
    r = min_genus(two)
    ok &= line(
        "c5 additivity",
        r.genus == sum(min_genus(q).genus for q in parts),
        f"disconnected total {r.genus}",
    )

    rng = random.Random(4)
    invariant = True
    for _ in range(5):
        p = _random_pattern(rng, max_crossings=7)
        base = min_genus(p).genus
        order = list(p.curves)
        rng.shuffle(order)
        relabeled = relabel(p, {lab: f"c{i}_{lab}" for i, lab in enumerate(p.curves)})
        by_degree = sorted(p.curves, key=lambda lab: (-p.degree(lab), p.index(lab)))
        invariant &= min_genus(relabeled).genus == base
        # the search inserts curves in pattern order: list them in two others
        crossings = [(p.curves[i], p.curves[j]) for i, j in p.crossings()]
        for labels in (order, by_degree):
            invariant &= min_genus(make_pattern(labels, crossings)).genus == base
    ok &= line("c5 invariance", invariant, "relabeling and insertion order")
    print(f"c5 wall time {time.time() - t0:.2f}s (budget 60s)")
    assert ok


# -- criterion 6: realizability, main --------------------------------------------------


def test_c6_ten_curve_realizable():
    t0 = time.time()
    p10 = load_pattern("curves10")
    res = is_realizable(p10, 5)
    ok = line(
        "c6 ten-curve",
        res.realizable and res.witness is not None,
        f"witness with neighborhood {surface_of(p10, res.witness).components}",
    )
    exported = json.dumps(
        {
            "visit_orders": {
                lab: list(order) for lab, order in res.witness.visit_orders
            },
            "crossing_bits": [list(t) for t in res.witness.crossing_bits],
        },
        sort_keys=True,
    )
    ok &= line("c6 witness export", len(exported) > 0, "witness serializes")
    print(f"c6a wall time {time.time() - t0:.2f}s")
    assert ok


def test_c6_twelve_curve_exceeds_budget_five():
    """The twelve-curve verdict at genus budget 5, in both search models.

    Pattern-only (README, "Search semantics"), the twelve curves embed
    within genus 5: the search finds a structure, whose traced genus lies
    between the mod-2 homology bound (4) and the budget.  With the tight
    placement of the first ten curves pinned (`u-placement`), the twelve
    curves exceed genus 5, certified by exhausting the search tree.
    """
    t0 = time.time()
    p12 = load_pattern("curves12")
    res = is_realizable(p12, 5)
    bound = (f2_rank_elimination(p12.inter) + 1) // 2
    witness_ok = res.witness is not None and validate_structure(p12, res.witness) == []
    traced = surface_of(p12, res.witness).total_genus if witness_ok else None
    ok = line(
        "c6 twelve-curve pattern-only",
        res.realizable and witness_ok and bound <= traced <= 5,
        f"realizable={res.realizable}, witness traces to genus {traced} "
        f"(homology bound {bound}, nodes {res.nodes_explored})",
    )
    pinned = min_genus(p12, 5, load_structure("u-placement"))
    ok &= line(
        "c6 twelve-curve pinned",
        pinned.kind == "exceeds" and pinned.exhausted and pinned.nodes_explored > 0,
        f"pinned tight placement: verdict {pinned.kind}, "
        f"exhausted={pinned.exhausted}, nodes {pinned.nodes_explored}",
    )
    print(f"c6b wall time {time.time() - t0:.2f}s")
    assert ok


def test_c6_fallback_eleven_curve_constrained():
    t0 = time.time()
    p11 = load_pattern("curves11")
    fixed = load_structure("u-placement")
    res = min_genus(p11, 5, fixed)
    ok = line(
        "c6 fallback eleven-curve",
        res.kind == "exceeds" and res.exhausted and res.nodes_explored > 0,
        f"pinned tight placement: verdict {res.kind}, exhausted={res.exhausted}, "
        f"nodes {res.nodes_explored}",
    )
    print(f"c6c wall time {time.time() - t0:.2f}s")
    assert ok


def test_c6_resource_cap_reports_inconclusive(capsys):
    code = cli_main(
        [
            "--json",
            "realize",
            "check",
            "--builtin",
            "curves12",
            "--genus",
            "5",
            "--node-cap",
            "10",
        ]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 3
    assert out["nodes_explored"] > 0
    line("c6 resource cap", True, "cap yields exit 3, never a verdict")


# -- criterion 7: end to end ---------------------------------------------------------


def _scoreboard_rows(capsys, threads):
    code = cli_main(["--json", "verify-paper", "--threads", str(threads)])
    data = json.loads(capsys.readouterr().out)
    return code, data["rows"]


def test_c7_verify_paper_deterministic(capsys):
    code1, rows1 = _scoreboard_rows(capsys, 1)
    code2, rows2 = _scoreboard_rows(capsys, 2)
    ok = line(
        "c7 determinism",
        rows1 == rows2 and code1 == code2,
        f"scoreboards identical with --threads 1 and 2 ({len(rows1)} rows)",
    )
    assert ok


def test_c7_verify_paper_exit_zero(capsys):
    """The full scoreboard exits 0: every row passes, including the two
    that check the computed deviations (non-extremal span rank 9, the
    twelve-curve pattern-only verdict)."""
    code, rows = _scoreboard_rows(capsys, 1)
    failing = [r["name"] for r in rows if not r["pass"]]
    line(
        "c7 exit code",
        code == 0,
        f"exit {code}; failing rows: {failing or 'none'}",
    )
    assert code == 0, f"verify-paper exits {code}; failing rows: {failing}"
