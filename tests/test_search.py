import itertools
import os
import random
import subprocess
import sys
import textwrap

import pytest

import twistlat
from twistlat import (
    InconclusiveError,
    InvalidInputError,
    enumerate_structures,
    is_realizable,
    make_pattern,
    min_genus,
    naive_min_genus,
    subpattern,
    surface_of,
)
from twistlat.builtin import load_pattern, load_structure
from twistlat.patterns import relabel


def chain_pattern(n):
    labs = [chr(ord("a") + i) for i in range(n)]
    return make_pattern(labs, [(labs[i], labs[i + 1]) for i in range(n - 1)])


def random_pattern(rng, max_crossings=8):
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
        p = make_pattern(keep, [(a, b) for a, b in chosen if a in keep and b in keep])
        if len(p.crossings()) <= max_crossings:
            return p


def reordered(p, labels):
    """The same pattern with its curves listed in the order `labels`; the
    search inserts curves in pattern order, so this changes the tree."""
    return make_pattern(labels, [(p.curves[i], p.curves[j]) for i, j in p.crossings()])


def test_pair_exact_one():
    p = make_pattern(["x", "y"], [("x", "y")])
    r = min_genus(p, budget=5)
    assert r.kind == "exact" and r.genus == 1
    # the pair meets its homology bound, so the search may stop there
    assert r.exhausted or "bound" in r.note
    assert surface_of(p, r.witness).total_genus == 1


def test_chain_exact_three():
    p = chain_pattern(7)
    r = min_genus(p, budget=5)
    assert (r.kind, r.genus) == ("exact", 3)
    ng, _ = naive_min_genus(p)
    assert ng == 3
    r7 = min_genus(load_pattern("chain7"), 5)
    assert (r7.kind, r7.genus, r7.nodes_explored) == ("exact", 3, 12)


def test_fast_exceeds_below_bound():
    p = chain_pattern(7)
    r = min_genus(p, budget=2)
    assert r.kind == "exceeds" and r.exhausted
    assert r.nodes_explored == 0 and "bound" in r.note


def test_fast_exceeds_notes_the_bound():
    # K4 needs genus 2 and its homology bound is 2, so budget 1 short-cuts
    p = make_pattern(list("abcd"), list(itertools.combinations("abcd", 2)))
    r = min_genus(p, budget=1)
    assert r.kind == "exceeds" and r.exhausted and r.nodes_explored == 0
    assert "bound" in r.note


def test_matches_naive_on_random_patterns():
    from twistlat import f2_genus_lower_bound

    rng = random.Random(7)
    for _ in range(25):
        p = random_pattern(rng)
        ng, _ = naive_min_genus(p)
        r = min_genus(p)
        assert r.genus == ng, (p.curves, p.crossings())
        assert r.genus >= f2_genus_lower_bound(p)
        # the realizability check is the same search stopped at the budget
        for g in range(f2_genus_lower_bound(p) - 1, ng + 2):
            res = is_realizable(p, g)
            assert res.realizable == (ng <= g), (p.curves, p.crossings(), g)
            assert (res.witness is not None) == res.realizable
            if res.witness is not None:
                assert surface_of(p, res.witness).total_genus <= g


def traced_partial_genus(eng):
    """Total genus of an engine's partial ribbon graph, traced in full from
    its links, crossings and bits: (2C - F - V + E) / 2 over the faces of
    sigma o link.  At a crossing with bit b the rotation of the dart
    offsets is (0, 2 + b, 1, 3 - b); sigma skips the unlinked darts."""
    link, nv = eng.link, len(eng.cross)
    linked = [d for d in range(4 * nv) if link[d] != -1]

    def sigma(d):
        x = d // 4
        b = eng.row[x] >> 4
        rot = [4 * x, 4 * x + 2 + b, 4 * x + 1, 4 * x + 3 - b]
        i = rot.index(d)
        for step in (1, 2, 3):
            if link[rot[(i + step) % 4]] != -1:
                return rot[(i + step) % 4]
        return d

    seen, faces = set(), 0
    for start in linked:
        if start not in seen:
            faces += 1
            d = start
            while d not in seen:
                seen.add(d)
                d = sigma(link[d])
    neighbours = {x: set() for x in range(nv)}
    for d in linked:
        neighbours[d // 4].add(link[d] // 4)
    reached, components = set(), 0
    for x in range(nv):
        if x not in reached:
            components += 1
            stack = [x]
            reached.add(x)
            while stack:
                for y in neighbours[stack.pop()] - reached:
                    reached.add(y)
                    stack.append(y)
    g2 = 2 * components - faces - nv + len(linked) // 2
    assert g2 >= 0 and g2 % 2 == 0, g2
    return g2 // 2


@pytest.fixture
def genus_checked(monkeypatch):
    """Compares the genus of every counted node with the full trace, one
    check per node, made when `_check_cap` runs right after the count.  A
    built child is traced where it stands.  A child that is counted but not
    built, because its predicted genus is past the cutoff, is built from its
    parent when `_genus_step` predicts it, on the strand of the innermost
    `_dfs_place`, traced against the parent's genus plus the prediction, and
    undone.  Each check is (built, genus)."""
    from twistlat import search

    engine = search._Engine
    check_cap, genus_step, dfs_place, place_crossing = (
        engine._check_cap,
        engine._genus_step,
        engine._dfs_place,
        engine._place_crossing,
    )
    checks, unbuilt = [], []
    strands = []  # the open strand of each `_dfs_place` call on the stack

    def tracked_dfs_place(self, c, k, remaining, strand, *rest):
        strands.append(strand)
        dfs_place(self, c, k, remaining, strand, *rest)
        strands.pop()

    def checked_genus_step(self, c, q, gap, bitv, same, face):
        strand = strands[-1]
        step = genus_step(self, c, q, gap, bitv, same, face)
        tok, genus, expected = len(self.cross), self.genus, self.genus + step
        place_crossing(self, c, q, gap, bitv, strand, step)
        traced = traced_partial_genus(self)
        self._unplace_crossing(c, q, gap, strand)
        self.genus = genus
        if traced != expected:
            raise AssertionError(f"predicted genus {expected}, traced {traced}")
        if expected > self._cutoff():
            unbuilt.append((tok, traced))
        return step

    def checked_check_cap(self):
        if unbuilt:
            tok, traced = unbuilt.pop()
            if len(self.cross) != tok:
                raise AssertionError("a child predicted past the cutoff was built")
            checks.append((False, traced))
        else:
            traced = traced_partial_genus(self)
            if self.genus != traced:
                raise AssertionError(f"engine genus {self.genus}, traced {traced}")
            checks.append((True, traced))
        return check_cap(self)

    monkeypatch.setattr(engine, "_dfs_place", tracked_dfs_place)
    monkeypatch.setattr(engine, "_genus_step", checked_genus_step)
    monkeypatch.setattr(engine, "_check_cap", checked_check_cap)
    return checks


def test_engine_genus_matches_full_trace_on_random_patterns(genus_checked):
    from twistlat import search

    rng = random.Random(7)
    nodes = 0
    for _ in range(25):
        p = random_pattern(rng)
        r = min_genus(p)
        assert surface_of(p, r.witness).total_genus == r.genus
        # these searches stop at the homology bound before any child is
        # pruned, so also exhaust each tree one above its minimum
        eng = search._Engine(p, r.genus + 1, stop_genus=-1)
        eng.run()
        assert eng.best_genus == r.genus
        nodes += r.nodes_explored + eng.nodes
    assert len(genus_checked) == nodes > 25
    assert sum(not built for built, _ in genus_checked) > 1000


@pytest.mark.parametrize(
    "name, search_fn",
    [("curves11", is_realizable), ("curves12", min_genus)],
    ids=["curves11-check-5", "curves12-min-genus-5"],
)
def test_engine_genus_matches_full_trace_when_pinned(genus_checked, name, search_fn):
    r = search_fn(load_pattern(name), 5, load_structure("u-placement"))
    assert (r.kind, r.nodes_explored) == ("exceeds", 18_542)
    assert len(genus_checked) == r.nodes_explored
    # the children traced one above a parent at the cutoff, never built
    assert sum(not built for built, _ in genus_checked) == 14_038


def test_pin_loads_at_its_own_genus(monkeypatch):
    """The engine starts at the pin's traced genus, which its layout
    traces to, and laying the pin out walks no face."""
    from twistlat import search

    face = search._Engine._face
    walks = []

    def counted_face(self, d):
        walks.append(d)
        return face(self, d)

    monkeypatch.setattr(search._Engine, "_face", counted_face)
    p, fixed = load_pattern("curves11"), load_structure("u-placement").canonical()
    pin = subpattern(p, [lab for lab, _ in fixed.visit_orders])
    pin_genus = surface_of(pin, fixed).total_genus
    eng = search._Engine(p, budget=5, stop_genus=5, fixed=fixed, pin_genus=pin_genus)
    assert eng.genus == traced_partial_genus(eng) == pin_genus == 5
    assert walks == []


def test_pinned_search_traces_its_pin_once(monkeypatch):
    """A pinned search validates its pin once, inside the one `surface_of`
    call that traces it, before its first node."""
    from twistlat import ribbon, search

    calls = []
    validate, trace = ribbon.validate_structure, search.surface_of

    def counted_validate(p, r):
        calls.append("validate_structure")
        return validate(p, r)

    def counted_trace(p, r):
        calls.append("surface_of")
        return trace(p, r)

    def first_node(self, k):
        calls.append("node")
        raise InconclusiveError("stop", nodes_explored=0)

    monkeypatch.setattr(ribbon, "validate_structure", counted_validate)
    # also where the search module itself might look it up
    monkeypatch.setattr(search, "validate_structure", counted_validate, raising=False)
    monkeypatch.setattr(search, "surface_of", counted_trace)
    monkeypatch.setattr(search._Engine, "_dfs_curve", first_node)
    with pytest.raises(InconclusiveError):
        min_genus(load_pattern("curves11"), 5, load_structure("u-placement"))
    assert calls == ["surface_of", "validate_structure", "node"]


def test_engine_genus_when_a_strand_joins_two_components(genus_checked, monkeypatch):
    """curves10 listed a, b, e, f, u, ...: the strand of u meets a, in the
    component {a, b}, and then e, in {e, f}, so its link between them joins
    two components that both have arcs.  The genus matches the full trace
    at every node of the exhaustion."""
    from twistlat import search

    place_crossing = search._Engine._place_crossing
    joins = []

    def counted_place_crossing(self, c, q, gap, bitv, strand, step):
        # the components the strand has met, named as in `_Engine.comp`
        comp = self.comp[[s and s[0] for s in self.plan].index(c)]
        met = {comp[sum(self.cross[d >> 2]) - c] for d in strand}
        if strand and comp[q] not in met and self.arcs[q]:
            joins.append((self.p.curves[c], self.p.curves[q]))
        place_crossing(self, c, q, gap, bitv, strand, step)

    monkeypatch.setattr(search._Engine, "_place_crossing", counted_place_crossing)
    q = reordered(load_pattern("curves10"), list("abefucdghv"))
    eng = search._Engine(q, 5, stop_genus=-1)
    eng.run()
    assert (eng.best_genus, eng.nodes) == (3, 103)
    assert joins == [("u", "e")] * 8
    assert len(genus_checked) == eng.nodes


@pytest.mark.parametrize(
    "name, search_fn, genus, pin, nodes",
    [
        ("curves11", is_realizable, 5, "u-placement", 18_542),
        ("curves12", min_genus, None, None, 171_040),
    ],
    ids=["curves11-pinned-5", "curves12-min-genus"],
)
def test_at_most_one_face_walk_per_node(monkeypatch, name, search_fn, genus, pin, nodes):
    """Every placement takes its genus change from its node's one face
    walk, so a search walks no more faces than it has `_dfs_place` calls
    (one walk per node, or one at a strand's closure); a pin walks none."""
    from twistlat import search

    face, dfs_place = search._Engine._face, search._Engine._dfs_place
    counts = {"face": 0, "dfs_place": 0}

    def counted_face(self, d):
        counts["face"] += 1
        return face(self, d)

    def counted_dfs_place(self, *args):
        counts["dfs_place"] += 1
        dfs_place(self, *args)

    monkeypatch.setattr(search._Engine, "_face", counted_face)
    monkeypatch.setattr(search._Engine, "_dfs_place", counted_dfs_place)
    fixed = load_structure(pin) if pin is not None else None
    r = search_fn(load_pattern(name), genus, fixed)
    assert r.nodes_explored == nodes
    assert 0 < counts["face"] <= counts["dfs_place"]


def test_each_placement_is_undone_exactly(monkeypatch):
    """Every `_dfs_place` call returns with the crossings, links, rows,
    arcs, genus and strand it was entered with: each placement and each
    strand closure is undone by its exact inverse."""
    from twistlat import search

    dfs_place = search._Engine._dfs_place
    calls = []

    def state(eng, strand):
        arcs = {c: list(a) for c, a in eng.arcs.items()}
        lists = (eng.cross, eng.link, eng.row, strand)
        return [list(xs) for xs in lists] + [arcs, eng.genus]

    def restoring_dfs_place(self, c, k, remaining, strand, *rest):
        before = state(self, strand)
        dfs_place(self, c, k, remaining, strand, *rest)
        assert state(self, strand) == before
        calls.append(c)

    monkeypatch.setattr(search._Engine, "_dfs_place", restoring_dfs_place)
    rng = random.Random(7)
    for _ in range(25):
        p = random_pattern(rng)
        eng = search._Engine(p, min_genus(p).genus + 1, stop_genus=-1)
        eng.run()
    unpinned = len(calls)
    r = is_realizable(load_pattern("curves11"), 5, load_structure("u-placement"))
    assert (r.kind, r.nodes_explored) == ("exceeds", 18_542)
    assert unpinned > 1_000 and len(calls) - unpinned == 3_913


def test_pin_loads_in_plan_order():
    """The pinned curves are loaded in insertion-plan order, which is
    pattern order.  Relabelled so that the sorted labels run against
    pattern order, curves11 under u-placement still loads at genus 5 and
    exhausts a tree of the same size."""
    from twistlat import search

    p, pin = load_pattern("curves11"), load_structure("u-placement")
    mapping = {lab: f"{99 - i:02d}" for i, lab in enumerate(p.curves)}
    q = relabel(p, mapping)
    fixed = twistlat.RibbonStructure(
        tuple(
            (mapping[lab], tuple(map(mapping.get, order)))
            for lab, order in pin.visit_orders
        ),
        tuple((mapping[a], mapping[b], bit) for a, b, bit in pin.crossing_bits),
    ).canonical()
    pinned = [lab for lab, _ in fixed.visit_orders]
    assert sorted(pinned) != sorted(pinned, key=q.index)
    pin_genus = surface_of(subpattern(q, pinned), fixed).total_genus
    eng = search._Engine(q, budget=5, stop_genus=5, fixed=fixed, pin_genus=pin_genus)
    assert eng.genus == traced_partial_genus(eng) == pin_genus == 5
    r = is_realizable(q, 5, fixed)
    assert (r.kind, r.nodes_explored) == ("exceeds", 18_542)


def test_relabel_invariance():
    rng = random.Random(13)
    for _ in range(6):
        p = random_pattern(rng, max_crossings=7)
        mapping = {lab: f"curve_{lab}" for lab in p.curves}
        q = relabel(p, mapping)
        assert min_genus(p).genus == min_genus(q).genus


def test_insertion_order_invariance():
    rng = random.Random(17)
    for _ in range(6):
        p = random_pattern(rng, max_crossings=7)
        base = min_genus(p).genus
        order = list(p.curves)
        rng.shuffle(order)
        by_degree = sorted(p.curves, key=lambda lab: (-p.degree(lab), p.index(lab)))
        for labels in (order, by_degree):
            q = reordered(p, labels)
            r = min_genus(q)
            assert r.genus == base
            # bits follow pattern order, so the witness is q's
            assert surface_of(q, r.witness).total_genus == base


def test_additivity_on_disconnected():
    p = make_pattern(
        ["a", "b", "c", "x", "y", "z"],
        [("a", "b"), ("b", "c"), ("x", "y"), ("y", "z"), ("x", "z")],
    )
    parts = [subpattern(p, ["a", "b", "c"]), subpattern(p, ["x", "y", "z"])]
    expect = sum(min_genus(q).genus for q in parts)
    r = min_genus(p)
    assert r.genus == expect
    assert surface_of(p, r.witness).total_genus == expect
    # a disconnected pattern is realized with each component at its minimum
    real = is_realizable(p, expect)
    assert (real.kind, real.genus, real.nodes_explored, real.witness) == (
        "exact",
        r.genus,
        r.nodes_explored,
        r.witness,
    )
    # the default budget bounds each component: five disjoint meeting pairs
    # need genus 5, and their crossings alone would allow only 4
    pairs = make_pattern(
        [f"{s}{i}" for i in range(5) for s in "ab"],
        [(f"a{i}", f"b{i}") for i in range(5)],
    )
    r5 = min_genus(pairs)
    assert (r5.kind, r5.genus) == ("exact", 5)
    assert surface_of(pairs, r5.witness).total_genus == 5


def test_realizable_and_witness():
    p = load_pattern("curves10")
    res = is_realizable(p, 5)
    assert res.realizable and res.witness is not None
    assert surface_of(p, res.witness).total_genus <= 5
    res2 = is_realizable(p, 2)  # below the homology bound 3
    assert not res2.realizable and res2.exhausted


def test_node_cap_raises_inconclusive():
    p = load_pattern("curves10")
    with pytest.raises(InconclusiveError) as err:
        min_genus(p, budget=5, node_cap=5)
    assert err.value.nodes_explored > 0


@pytest.mark.parametrize(
    "name, search_fn, genus, pin, expected",
    [
        ("curves11", min_genus, None, None, ("exact", 4, 165_695)),
        ("curves12", min_genus, None, None, ("exact", 4, 171_040)),
        ("curves11", is_realizable, 5, "u-placement", ("exceeds", None, 18_542)),
        ("curves12", is_realizable, 5, "u-placement", ("exceeds", None, 18_542)),
        ("curves11", is_realizable, 6, "u-placement", ("realizable", 6, 814)),
        ("curves12", is_realizable, 6, "u-placement", ("realizable", 6, 2_362)),
        ("curves12", is_realizable, 5, None, ("realizable", 5, 1_407)),
    ],
    ids=[
        "curves11-min-genus",
        "curves12-min-genus",
        "curves11-pinned-5",
        "curves12-pinned-5",
        "curves11-pinned-6",
        "curves12-pinned-6",
        "curves12-check-5",
    ],
)
def test_node_counts(name, search_fn, genus, pin, expected):
    # a cap equal to the count changes nothing
    fixed = load_structure(pin) if pin is not None else None
    r = search_fn(load_pattern(name), genus, fixed, node_cap=expected[2])
    assert (r.kind, r.genus, r.nodes_explored) == expected


def test_node_cap_bounds_the_whole_search(genus_checked):
    """The search stops at the first node past the cap, whether that node
    is built or counted without being built (node 8,987 of the pinned
    curves11 exhaustion is the latter, node 8,986 the former)."""
    pin = load_structure("u-placement")
    for name, fixed, cap, built in [
        ("curves12", None, 500, False),
        ("curves12", None, 1406, True),
        ("curves11", pin, 8986, False),
    ]:
        genus_checked.clear()
        with pytest.raises(InconclusiveError, match=f"^node cap {cap} exceeded") as err:
            is_realizable(load_pattern(name), 5, fixed, node_cap=cap)
        assert err.value.nodes_explored == len(genus_checked) == cap + 1
        assert genus_checked[-1][0] == built
        if fixed is not None:
            assert genus_checked[-2][0]


def test_certificate_checks_survive_python_O():
    """The leaf's internal/external trace match still raises under -O."""
    code = textwrap.dedent(
        """
        import types
        from twistlat import make_pattern, min_genus, search

        assert False, "assert statements must be stripped"
        search.surface_of = lambda p, r: types.SimpleNamespace(total_genus=-1)
        try:
            r = min_genus(make_pattern(["x", "y"], [("x", "y")]), budget=5)
        except AssertionError as exc:
            print("raised:", exc)
        else:
            print("returned:", r.kind, r.genus)
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
    assert out.stdout.strip() == "raised: internal/external trace mismatch"


def test_fixed_prefix_constrains_search():
    p = load_pattern("curves11")
    fixed = load_structure("u-placement")
    r = min_genus(p, 5, fixed)
    # exhaustion-certified Exceeds: the pinned placement blocks the last curve
    assert r.kind == "exceeds" and r.exhausted and r.nodes_explored > 0
    # without the pin the same pattern fits within the budget
    free = is_realizable(p, 5)
    assert free.realizable and surface_of(p, free.witness).total_genus <= 5


def test_fixed_prefix_validation():
    """A pin is checked before any bound: one naming a curve the pattern
    lacks, or a partner its curve does not meet, is invalid even at a
    budget the homology bound already decides."""
    p = load_pattern("curves11")
    fixed = load_structure("u-placement")
    stray = twistlat.RibbonStructure(
        fixed.visit_orders + (("zz", ()),), fixed.crossing_bits
    )
    wrong_partner = twistlat.RibbonStructure(
        (("a", ("c",)), ("b", ("a", "c")), ("c", ("b",))),
        (("a", "b", 0), ("b", "c", 0)),
    )
    message = (
        "fixed structure invalid on its sub-pattern: "
        "curve 'a' visits ['c'], expected partners ['b']"
    )
    for budget in (0, 5):
        with pytest.raises(InvalidInputError, match="unknown curves"):
            min_genus(p, budget, stray)
        with pytest.raises(InvalidInputError) as err:
            is_realizable(p, budget, wrong_partner)
        assert str(err.value) == message


@pytest.mark.parametrize("name", ["curves11", "curves12"])
def test_pin_above_budget_exceeds_without_search(name):
    """u-placement alone has genus 5, and a completion's genus is at least
    its pin's: every budget up to 4 is `exceeds` with no node explored,
    whether the homology bound (4) or the pin's genus decides it."""
    p = load_pattern(name)
    pin = load_structure("u-placement")
    for budget in range(5):
        for res in (min_genus(p, budget, pin), is_realizable(p, budget, pin)):
            assert (res.kind, res.nodes_explored, res.exhausted) == ("exceeds", 0, True)
    assert min_genus(p, 4, pin).note == "pinned structure alone has genus 5"


def test_pin_genus_reads_bits_in_pattern_order():
    """A pin's genus is traced with the pattern's crossing convention,
    curves x < y in pattern order, as the engine and `surface_of(p, .)`
    read it.  K4 listed b, a, c, d, pinned on all four curves by each of
    its 1,024 structures, is realizable at the pin's own traced genus."""
    p = make_pattern(list("bacd"), list(itertools.combinations("abcd", 2)))
    for r in enumerate_structures(p):
        g = surface_of(p, r).total_genus
        res = is_realizable(p, g, r)
        assert (res.kind, res.genus) == ("realizable", g), r


def test_witness_round_trips_through_fixed_loader():
    """Loading a full witness back as a pinned structure reproduces its
    traced surface with no free search left.

    Directions of degree-2 curves are tie-broken toward the loaded
    encoding, so re-extraction reproduces the witness exactly.
    """
    rng = random.Random(31)
    for _ in range(6):
        p = random_pattern(rng, max_crossings=7)
        r = min_genus(p)
        assert r.witness is not None
        pinned = min_genus(p, max(r.genus, 1), r.witness)
        assert (pinned.kind, pinned.genus) == ("exact", r.genus)
        assert pinned.witness.canonical() == r.witness.canonical()
        assert (
            surface_of(p, pinned.witness).components
            == surface_of(p, r.witness).components
        )


def test_witnesses_read_each_curve_in_its_smaller_direction():
    """A witness lists each curve's visit order from its lowest partner, in
    the direction whose label list is smaller: no order is above its
    reversal ``o[:1] + o[:0:-1]``."""
    rng = random.Random(7)
    witnesses = [min_genus(random_pattern(rng)).witness for _ in range(40)]
    for name in ("chain7", "cycle8", "curves10", "curves11", "curves12"):
        witnesses.append(min_genus(load_pattern(name)).witness)
    pin = load_structure("u-placement")
    for name in ("curves11", "curves12"):
        witnesses.append(is_realizable(load_pattern(name), 6, pin).witness)
    orders = [order for w in witnesses for _, order in w.visit_orders]
    assert all(order <= order[:1] + order[:0:-1] for order in orders)
    # the rule decides: many orders differ from their reversal
    assert sum(order != order[:1] + order[:0:-1] for order in orders) > 50


def test_bound_shortcut_certifies_exact_minimum():
    """When a structure reaches the homology lower bound, the search stops
    early; the verdict says so and agrees with full exhaustion."""
    p = load_pattern("cycle8")
    r = min_genus(p)
    assert (r.kind, r.genus) == ("exact", 3)
    assert not r.exhausted and "bound" in r.note
    # a budget below the minimum still exhausts (no structure reaches it)
    from twistlat import f2_genus_lower_bound

    assert f2_genus_lower_bound(p) == 3


def test_fixed_prefix_matches_constrained_oracle():
    """Enumerating all structures that extend a pinned sub-structure must
    give the same constrained minimum as the fixed-prefix search."""
    from twistlat import enumerate_structures, restrict

    p = chain_pattern(4)
    sub_labels = ["a", "b", "c"]
    sub = subpattern(p, sub_labels)
    fixed = None
    for cand in enumerate_structures(sub):
        fixed = cand
        break
    res = min_genus(p, 9, fixed)
    best = None
    for r in enumerate_structures(p):
        rsub, rstruct = restrict(p, r, sub_labels)
        if rstruct.canonical() == fixed.canonical():
            g = surface_of(p, r).total_genus
            best = g if best is None or g < best else best
    assert best is not None
    assert (res.kind, res.genus) == ("exact", best)


def test_fixed_prefix_with_disconnected_pattern():
    p = make_pattern(
        ["a", "b", "x", "y"], [("a", "b"), ("x", "y")]
    )
    sub = subpattern(p, ["a", "b"])
    from twistlat import enumerate_structures

    fixed = next(iter(enumerate_structures(sub)))
    r = min_genus(p, 9, fixed)
    assert (r.kind, r.genus) == ("exact", 2)  # two one-holed tori
    assert surface_of(p, r.witness).total_genus == 2


def test_invalid_inputs():
    p = make_pattern(["x", "y"], [("x", "y")])
    with pytest.raises(InvalidInputError):
        min_genus(p, budget=-1)
    with pytest.raises(InvalidInputError, match="genus"):
        is_realizable(p, -1)
    bad = make_pattern(["x", "y", "z"], [("x", "y")])
    with pytest.raises(InvalidInputError):
        min_genus(bad)  # isolated curve rejected by validation
