import functools
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
    is_realizable,
    make_pattern,
    min_genus,
    naive_min_genus,
    subpattern,
    surface_of,
)
from twistlat.builtin import load_pattern, load_structure
from twistlat.patterns import relabel
from twistlat.search import SearchConfig


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
        assert min_genus(p, config=SearchConfig(order=tuple(order))).genus == base
        assert min_genus(p, config=SearchConfig(order="degree")).genus == base


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
        min_genus(p, budget=5, config=SearchConfig(node_cap=5))
    assert err.value.nodes_explored > 0


_THREAD_CASES = {
    "cycle8 min-genus 4": lambda cfg: min_genus(load_pattern("cycle8"), 4, cfg),
    "curves12 check 5": lambda cfg: is_realizable(load_pattern("curves12"), 5, cfg),
    "curves10 min-genus": lambda cfg: min_genus(load_pattern("curves10"), config=cfg),
}


@functools.lru_cache(maxsize=None)
def _thread_outcome(case, threads):
    r = _THREAD_CASES[case](SearchConfig(threads=threads))
    return (r.kind, r.genus, r.nodes_explored, r.exhausted, r.note, r.witness)


@pytest.mark.parametrize("threads", [1, 2, 5, 8])
def test_thread_count_does_not_change_outcome(threads):
    # thread counts on both sides of 4: the split must not follow them
    for case in _THREAD_CASES:
        assert _thread_outcome(case, threads) == _thread_outcome(case, 1), case


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


def test_thread_count_invariance_on_exhaustion_run():
    # a mid-size exhaustion-certified Exceeds: identical node counts too
    p = load_pattern("curves11")
    fixed = load_structure("u-placement")
    r1 = min_genus(p, 5, SearchConfig(fixed=fixed, threads=1))
    r2 = min_genus(p, 5, SearchConfig(fixed=fixed, threads=3))
    assert (r1.kind, r1.nodes_explored, r1.exhausted) == (
        r2.kind,
        r2.nodes_explored,
        r2.exhausted,
    )


def test_cache_resume(tmp_path):
    p = load_pattern("cycle8")
    cache = str(tmp_path / "cycle8.cache.json")
    r1 = min_genus(p, budget=4, config=SearchConfig(cache_path=cache))
    r2 = min_genus(p, budget=4, config=SearchConfig(cache_path=cache, resume=True))
    assert (r1.kind, r1.genus, r1.nodes_explored) == (r2.kind, r2.genus, r2.nodes_explored)
    # corrupt the version: the cache is ignored, not trusted
    import json

    with open(cache) as fh:
        data = json.load(fh)
    data["version"] = 999
    with open(cache, "w") as fh:
        json.dump(data, fh)
    r3 = min_genus(p, budget=4, config=SearchConfig(cache_path=cache, resume=True))
    assert (r3.kind, r3.genus, r3.nodes_explored) == (r1.kind, r1.genus, r1.nodes_explored)


def test_fixed_prefix_constrains_search():
    p = load_pattern("curves11")
    fixed = load_structure("u-placement")
    r = min_genus(p, 5, SearchConfig(fixed=fixed))
    # exhaustion-certified Exceeds: the pinned placement blocks the last curve
    assert r.kind == "exceeds" and r.exhausted and r.nodes_explored > 0
    # without the pin the same pattern fits within the budget
    free = is_realizable(p, 5)
    assert free.realizable and surface_of(p, free.witness).total_genus <= 5


def test_fixed_prefix_validation():
    p = load_pattern("curves11")
    fixed = load_structure("u-placement")
    with pytest.raises(InvalidInputError):
        # the pinned structure already has genus 5, above this budget
        min_genus(p, 4, SearchConfig(fixed=fixed))


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
        pinned = min_genus(p, max(r.genus, 1), SearchConfig(fixed=r.witness))
        assert (pinned.kind, pinned.genus) == ("exact", r.genus)
        assert pinned.witness.canonical() == r.witness.canonical()
        assert (
            surface_of(p, pinned.witness).components
            == surface_of(p, r.witness).components
        )


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
    res = min_genus(p, 9, SearchConfig(fixed=fixed))
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
    r = min_genus(p, 9, SearchConfig(fixed=fixed))
    assert (r.kind, r.genus) == ("exact", 2)  # two one-holed tori
    assert surface_of(p, r.witness).total_genus == 2


def test_invalid_inputs():
    p = make_pattern(["x", "y"], [("x", "y")])
    with pytest.raises(InvalidInputError):
        min_genus(p, budget=-1)
    with pytest.raises(InvalidInputError):
        min_genus(p, config=SearchConfig(order=("x",)))
    bad = make_pattern(["x", "y", "z"], [("x", "y")])
    with pytest.raises(InvalidInputError):
        min_genus(bad)  # isolated curve rejected by validation
