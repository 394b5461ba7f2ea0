"""Command-line front end.

Subcommand groups mirror the library: `gamma` (graph), `lattice`, `rep`
(symplectic representation), `chains`, `realize` (curve patterns and
minimal genus), plus `verify-paper`, which runs the whole verification
pipeline and prints a check-by-check scoreboard.

Exit codes: 0 all checks pass / query answered; 1 a mathematical check
failed; 2 invalid input; 3 inconclusive (resource cap hit before
exhaustion).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field

from . import __version__
from . import builtin as bdata
from .bitgraph import (
    AFFINE_CYCLE,
    BR8_CHAIN,
    build_gamma,
    no_opposite_pair,
    parse_vertex,
    vertex_str,
)
from .errors import DegenerateFormError, InconclusiveError, InvalidInputError
from .lattice import (
    gram_matrix,
    lattice_to_json_dict,
    quotient_lattice,
    sublattice_rank,
    symplectic_basis,
)
from .patterns import (
    CurvePattern,
    f2_genus_lower_bound,
    pattern_from_json,
    pattern_to_json_dict,
    validate_pattern,
)
from .ribbon import (
    structure_from_json,
    structure_to_json_dict,
    surface_of,
)
from .search import is_realizable, min_genus
from .transvect import (
    RelationReport,
    chain_parity_check,
    conjugacy_witnesses,
    invariant_span_closure,
    quadratic_refinement,
    refinement_identity_ok,
    refinement_invariant_under,
    rep_to_json_dict,
    transvection_shape,
    verify_all_relations,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_INCONCLUSIVE = 3


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class _Run:
    """Collects manifest data and output for one CLI invocation."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.t0 = time.perf_counter()
        self.input_hashes: dict[str, str] = {}
        self.verdicts: dict[str, object] = {}
        self.payload: dict = {}
        self.lines: list[str] = []

    def manifest(self) -> dict:
        params = {
            k: v
            for k, v in sorted(vars(self.args).items())
            if k not in ("func", "json")
        }
        return {
            "command": self.args.command_path,
            "parameters": params,
            "version": __version__,
            "input_hashes": dict(sorted(self.input_hashes.items())),
            "wall_time_s": round(time.perf_counter() - self.t0, 3),
            "verdicts": self.verdicts,
        }

    def say(self, line: str) -> None:
        self.lines.append(line)

    def emit(self, code: int) -> int:
        if self.args.json:
            out = dict(self.payload)
            out["manifest"] = self.manifest()
            out["exit_code"] = code
            print(json.dumps(out, sort_keys=True, indent=1))
        else:
            for line in self.lines:
                print(line)
        return code


def _given(args, name: str) -> bool:
    """Whether an option was given.  An empty value counts as given; the
    store-true ``--non-extremal`` counts only when set (its default is False)."""
    value = getattr(args, name, None)
    return value is not None and value is not False


def _check_options(args) -> None:
    """Each pair of options names one input two ways; give at most one.
    ``--threads`` changes nothing, but is still checked."""
    for a, b in (
        ("pattern", "builtin"),
        ("fixed", "fixed_builtin"),
        ("subset", "non_extremal"),
    ):
        if _given(args, a) and _given(args, b):
            raise InvalidInputError(
                f"give --{a} or --{b.replace('_', '-')}, not both"
            )
    if getattr(args, "threads", 1) < 1:
        raise InvalidInputError("threads must be at least 1")


def _read_input(run: _Run, args, path: str, name: str, files: dict, parse):
    """The input given as the file ``--<path>`` or as the bundled file
    ``--<name>`` names, or None when neither is given.  Its text is read
    once, hashed into the manifest and parsed by ``parse``."""
    if _given(args, name):
        key = f"builtin:{getattr(args, name)}"
        text = bdata.raw_file(files[getattr(args, name)])
    elif _given(args, path):
        key = getattr(args, path)
        with open(key, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        return None
    run.input_hashes[key] = _sha256(text)
    return parse(text)


def _load_pattern(run: _Run, args) -> CurvePattern:
    p = _read_input(run, args, "pattern", "builtin", bdata.PATTERN_FILES, pattern_from_json)
    if p is None:
        raise InvalidInputError("provide --pattern FILE or --builtin NAME")
    return p


def _load_pin(run: _Run, args):
    """The pinned structure of ``--fixed`` or ``--fixed-builtin``, if any."""
    return _read_input(
        run, args, "fixed", "fixed_builtin", bdata.STRUCTURE_FILES, structure_from_json
    )


# -- gamma ---------------------------------------------------------------------


def cmd_gamma_stats(run: _Run, args) -> int:
    g = build_gamma(args.k)
    ext = g.extremal_vertices()
    run.payload = {
        "k": g.k,
        "vertices": len(g.vertices),
        "edges": len(g.edges),
        "extremal": [vertex_str(v) for v in ext],
        "extremal_degrees": [g.degree(v) for v in ext],
        "degrees": {vertex_str(v): g.degree(v) for v in g.vertices},
    }
    run.say(f"graph on {{0,1}}^{g.k}: {len(g.vertices)} vertices, {len(g.edges)} edges")
    run.say(f"extremal vertices: {', '.join(vertex_str(v) for v in ext)}")
    return EXIT_OK


def cmd_gamma_export(run: _Run, args) -> int:
    g = build_gamma(args.k)
    if args.format == "dot":
        text = g.to_dot()
    else:
        text = json.dumps(g.to_json_dict(), sort_keys=True, indent=1) + "\n"
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        run.say(f"wrote {args.output}")
        run.payload = {"written": args.output}
    else:
        run.payload = {"export": g.to_json_dict() if args.format == "json" else text}
        run.say(text.rstrip("\n"))
    return EXIT_OK


# -- lattice --------------------------------------------------------------------


def cmd_lattice(run: _Run, args) -> int:
    lat = gram_matrix(args.k)
    which = args.what
    if which == "gram":
        run.payload = lattice_to_json_dict(lat)
        run.say(f"{lat.dimension}x{lat.dimension} Gram matrix, rank {lat.rank()}")
        for row in lat.gram:
            run.say(" ".join(f"{x:2d}" for x in row))
        return EXIT_OK
    q = quotient_lattice(lat)
    if which == "radical":
        run.payload = {"radical_basis": [list(r) for r in q.radical_basis]}
        run.say(f"radical rank {len(q.radical_basis)}")
        for row in q.radical_basis:
            run.say(" ".join(f"{x:2d}" for x in row))
        return EXIT_OK
    if which == "quotient":
        run.payload = lattice_to_json_dict(lat, q)
        try:
            run.payload["symplectic_basis"] = [
                list(r) for r in symplectic_basis(q)
            ]
        except DegenerateFormError as exc:
            # a fact about the form at this k, not a failure of the export
            run.payload["symplectic_basis"] = None
            run.payload["symplectic_basis_note"] = str(exc)
            run.say(f"no symplectic basis: {exc}")
        run.payload["determinant"] = q.determinant()
        run.say(
            f"quotient rank {q.rank}, induced determinant {q.determinant()}"
        )
        return EXIT_OK
    if which == "rank":
        g = build_gamma(args.k)
        if args.subset is not None:
            verts = [parse_vertex(s) for s in args.subset.split(",")]
        elif args.non_extremal:
            verts = [v for v in g.vertices if not g.is_extremal(v)]
        else:
            verts = list(g.vertices)
        idx = [g.vertex_index(v) for v in verts]
        r = sublattice_rank(q, idx)
        run.payload = {
            "subset": [vertex_str(v) for v in verts],
            "rank": r,
        }
        run.say(f"span of {len(verts)} classes has rank {r}")
        return EXIT_OK
    raise InvalidInputError(f"unknown lattice query {which!r}")


# -- rep -------------------------------------------------------------------------


def _algebra(k: int):
    """The graph on {0,1}^k and the quotient of its skew lattice."""
    return build_gamma(k), quotient_lattice(gram_matrix(k))


@dataclass(frozen=True)
class Check:
    """One checked fact: its `verify-paper` row (name, verdict, detail) and
    the data its own subcommand reports."""

    name: str
    ok: bool
    detail: str
    data: dict = field(default_factory=dict)


def _report(run: _Run, verdict: str, check: Check, line: str) -> int:
    """A single-check subcommand: the check's data, verdict, line and exit code."""
    run.payload = check.data
    run.verdicts[verdict] = check.ok
    run.say(line)
    return EXIT_OK if check.ok else EXIT_CHECK_FAILED


def _relations_check(q, g, sign: int) -> tuple[RelationReport, bool]:
    """The relation report, and whether each transvection has its shape."""
    rep = verify_all_relations(q, g, sign=sign)
    return rep, all(transvection_shape(q, v, sign).ok for v in g.vertices)


def _qform_check(q, g) -> Check:
    """The quadratic refinement: its identity, its invariance under every
    generator, and q = 1 on every class."""
    ref = quadratic_refinement(q)
    values = [ref.value(c) for c in q.class_map]
    identity = refinement_identity_ok(ref)
    invariant = all(refinement_invariant_under(ref, q, v) for v in g.vertices)
    return Check(
        "quadratic-refinement",
        identity and invariant and all(x == 1 for x in values),
        "q=1 on classes, identity + invariance exhaustively",
        {
            "identity_ok": identity,
            "invariant_ok": invariant,
            "values_on_classes": values,
            "table": list(ref.table),
        },
    )


def _closure_check(q, g, seeds) -> Check:
    """Dimension of the invariant span closure from each seed generator;
    ok iff every one is the full rank."""
    dims = {
        vertex_str(v): invariant_span_closure(q, [q.class_map[g.vertex_index(v)]])
        for v in seeds
    }
    return Check(
        "irreducibility",
        all(d == q.rank for d in dims.values()),
        "closure from each generator direction = 10",
        {"closure_dims": dims, "rank": q.rank},
    )


def _parity_check(q) -> Check:
    """The alternating chain sum is nonzero with odd pairing parity."""
    nonzero, parity = chain_parity_check(q)
    return Check(
        "homology-parity",
        nonzero and parity == 1,
        f"sum nonzero={nonzero}, parity={parity}",
        {"nonzero": nonzero, "parity": parity},
    )


def cmd_rep_check_relations(run: _Run, args) -> int:
    g, q = _algebra(args.k)
    ok = True
    for sign in [1, -1] if args.sign == "both" else [int(args.sign)]:
        rep, shape_ok = _relations_check(q, g, sign)
        run.verdicts[f"relations(sign={sign:+d})"] = rep.ok
        run.verdicts[f"transvection-shape(sign={sign:+d})"] = shape_ok
        run.say(
            f"sign {sign:+d}: {rep.pairs_checked} pairs, "
            f"{rep.triangles_checked} triangles, "
            f"{'ok' if rep.ok and shape_ok else 'FAILED'}"
        )
        for item in rep.pair_failures[:5]:
            run.say(f"  pair failure: {item}")
        for item in rep.triangle_failures[:5]:
            run.say(f"  triangle failure: {item}")
        ok = ok and rep.ok and shape_ok
    run.payload = {"ok": ok}
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_rep_witnesses(run: _Run, args) -> int:
    g, q = _algebra(args.k)
    words = conjugacy_witnesses(q, g, sign=int(args.sign))
    run.payload = {
        "witnesses": {
            vertex_str(v): [vertex_str(u) for u in w] for v, w in words.items()
        }
    }
    run.say(f"verified conjugating words for all {len(words)} generators")
    for v, w in sorted(words.items()):
        run.say(f"  {vertex_str(v)}: {' '.join(vertex_str(u) for u in w) or '(empty)'}")
    return EXIT_OK


def cmd_rep_qform(run: _Run, args) -> int:
    g, q = _algebra(args.k)
    c = _qform_check(q, g)
    d = c.data
    flags = (d["identity_ok"], d["invariant_ok"], all(x == 1 for x in d["values_on_classes"]))
    line = "quadratic refinement: identity {}, invariance {}, q(class)=1 {}"
    return _report(run, "qform", c, line.format(*("ok" if f else "FAILED" for f in flags)))


def cmd_rep_irreducible(run: _Run, args) -> int:
    g, q = _algebra(args.k)
    seeds = g.vertices if args.seed is None else [parse_vertex(args.seed)]
    c = _closure_check(q, g, seeds)
    dims = set(c.data["closure_dims"].values())
    seed = "all single-generator seeds: all " if args.seed is None else f"{args.seed}: "
    line = f"invariant span closure from {seed}{dims} (rank {q.rank})"
    return _report(run, "irreducible", c, line)


def cmd_rep_parity(run: _Run, args) -> int:
    c = _parity_check(quotient_lattice(gram_matrix(4)))
    line = "alternating chain sum: nonzero={nonzero}, pairing parity={parity}"
    return _report(run, "parity", c, line.format(**c.data))


def cmd_rep_export(run: _Run, args) -> int:
    g, q = _algebra(args.k)
    run.payload = rep_to_json_dict(q, g, int(args.sign))
    run.say("representation data exported (use --json to capture)")
    return EXIT_OK


# -- chains ----------------------------------------------------------------------


def cmd_chains_verify(run: _Run, args) -> int:
    g = build_gamma(args.k)
    seq = [parse_vertex(s) for s in args.seq.split(",")]
    if args.cycle:
        ok = g.verify_induced_cycle(seq)
        run.payload = {"is_induced_cycle": ok}
        run.say(f"induced cycle: {ok}")
        run.verdicts["induced-cycle"] = ok
        return EXIT_OK if ok else EXIT_CHECK_FAILED
    rep = g.verify_chain(seq)
    run.payload = {
        "is_chain": rep.is_chain,
        "violations": [
            {"positions": list(pos), "reason": reason}
            for pos, reason in rep.violations
        ],
    }
    run.say(f"is_chain={rep.is_chain}")
    for pos, reason in rep.violations:
        run.say(f"  violation at {pos}: {reason}")
    run.verdicts["chain"] = rep.is_chain
    return EXIT_OK if rep.is_chain else EXIT_CHECK_FAILED


def cmd_chains_enumerate(run: _Run, args) -> int:
    if args.limit < 0:
        raise InvalidInputError("limit must be nonnegative")
    g = build_gamma(args.k)
    paths = g.enumerate_induced_paths(args.length, avoid_extremal=args.avoid_extremal)
    run.payload = {
        "count": len(paths),
        "paths": [[vertex_str(v) for v in p] for p in paths],
    }
    run.say(f"{len(paths)} induced paths of length {args.length}")
    if not args.json:
        for p in paths[: args.limit]:
            run.say("  " + " -> ".join(vertex_str(v) for v in p))
        if len(paths) > args.limit:
            run.say(f"  ... ({len(paths) - args.limit} more; use --json for all)")
    return EXIT_OK


def _partners_check(g) -> Check:
    """A commuting partner on the canonical 7-chain exists exactly for the
    non-extremal vertices."""
    rows = {}
    ok = True
    for v in g.vertices:
        w = g.commuting_partner_witness(BR8_CHAIN, v)
        rows[vertex_str(v)] = w
        ok = ok and ((w is not None) == (not g.is_extremal(v)))
    return Check(
        "commuting-partners",
        ok,
        "witness for all 14 non-extremal, none for extremal",
        {"witnesses": rows},
    )


def cmd_chains_witnesses(run: _Run, args) -> int:
    c = _partners_check(build_gamma(4))
    for v, w in sorted(c.data["witnesses"].items()):
        run.say(f"  {v}: {'none' if w is None else f'chain position {w}'}")
    line = "witness pattern " + ("consistent" if c.ok else "INCONSISTENT")
    return _report(run, "commuting-partners", c, line)


# -- realize ---------------------------------------------------------------------


def cmd_realize_validate(run: _Run, args) -> int:
    p = _load_pattern(run, args)
    problems = validate_pattern(p)
    run.payload = {
        "pattern": pattern_to_json_dict(p),
        "problems": problems,
        "crossings": len(p.crossings()),
        "degrees": {lab: p.degree(lab) for lab in p.curves},
    }
    if problems:
        for msg in problems:
            run.say(f"problem: {msg}")
        return EXIT_INVALID
    run.say(
        f"pattern ok: {len(p.curves)} curves, {len(p.crossings())} crossings"
    )
    return EXIT_OK


def cmd_realize_bound(run: _Run, args) -> int:
    p = _load_pattern(run, args)
    b = f2_genus_lower_bound(p)
    run.payload = {"f2_genus_lower_bound": b}
    run.say(f"homology (mod-2 rank) genus lower bound: {b}")
    return EXIT_OK


def _write_witness(run: _Run, args) -> None:
    """Write the payload's witness, or ``null`` when the answer has none."""
    if args.witness_out is not None:
        with open(args.witness_out, "w", encoding="utf-8") as fh:
            json.dump(run.payload["witness"], fh, sort_keys=True, indent=1)
        run.say(f"witness written to {args.witness_out}")


def cmd_realize_min_genus(run: _Run, args) -> int:
    p = _load_pattern(run, args)
    res = min_genus(p, args.budget, _load_pin(run, args), args.node_cap)
    run.payload = res.to_json_dict()
    run.verdicts["min-genus"] = res.kind
    if res.kind == "exact":
        run.say(
            f"exact minimal genus {res.genus} "
            f"(nodes {res.nodes_explored}, {res.wall_time_s:.1f}s)"
        )
    else:
        run.say(
            f"exceeds budget {res.budget} (exhausted={res.exhausted}, "
            f"nodes {res.nodes_explored}, {res.wall_time_s:.1f}s)"
            + (f"; {res.note}" if res.note else "")
        )
    _write_witness(run, args)
    return EXIT_OK


def cmd_realize_check(run: _Run, args) -> int:
    p = _load_pattern(run, args)
    res = is_realizable(p, args.genus, _load_pin(run, args), args.node_cap)
    run.payload = {
        "realizable": res.realizable,
        "genus": args.genus,
        "witness": (
            structure_to_json_dict(res.witness) if res.witness else None
        ),
        "nodes_explored": res.nodes_explored,
        "exhausted": res.exhausted,
    }
    run.verdicts["realizable"] = res.realizable
    run.say(
        f"realizable within genus {args.genus}: {res.realizable} "
        f"(nodes {res.nodes_explored})"
    )
    if res.realizable and res.witness is not None:
        s = surface_of(p, res.witness)
        run.say(f"witness neighborhood: components {s.components}")
    _write_witness(run, args)
    return EXIT_OK


# -- verify-paper ------------------------------------------------------------------


#: A relation in the radical supported on non-extremal vertices; it cuts the
#: span of the 14 non-extremal classes down to rank 9.
_RECTANGLE_RELATION = {"0011": 1, "0110": -1, "1001": -1, "1100": 1}

#: The genus of the paper's claim: the monodromy into Sp(10;Z) does not
#: factor through the genus-5 mapping class group.  Every search row of
#: `verify-paper` runs at this genus.
_PAPER_GENUS = 5

#: Pattern-only minimal genus of the twelve-curve pattern, certified by
#: `realize min-genus --builtin curves12` (a structure reaches the F2 bound).
_CURVES12_PATTERN_MIN_GENUS = 4

_DEVIATIONS_SECTION = "Computed deviations from the stated values"


def _paper_checks(fallback_only: bool):
    """The rows of `verify-paper`, in scoreboard order, each computed when
    it is reached."""
    g, g3 = build_gamma(4), build_gamma(3)
    ok = (len(g.vertices), len(g.edges), len(g3.vertices), len(g3.edges)) == (16, 65, 8, 19)
    agree = all(
        gk.is_edge(u, v) == no_opposite_pair(u, v)
        for gk in map(build_gamma, (1, 2, 3, 4, 5))
        for u in gk.vertices
        for v in gk.vertices
        if u != v
    )
    yield Check(
        "graph-shape",
        ok and agree,
        f"k=4: {len(g.vertices)}v/{len(g.edges)}e, k=3: "
        f"{len(g3.vertices)}v/{len(g3.edges)}e, edge rules agree k<=5: {agree}",
    )

    ext = g.extremal_vertices()
    ok = set(ext) == {(0, 0, 0, 0), (1, 1, 1, 1)} and all(g.degree(v) == 15 for v in ext)
    yield Check("extremal-vertices", ok, f"{[vertex_str(v) for v in ext]} degree 15")
    yield Check(
        "seven-chain",
        g.verify_chain(BR8_CHAIN).is_chain,
        "canonical 7-chain spans an induced path",
    )
    yield Check(
        "affine-cycle",
        g.verify_induced_cycle(AFFINE_CYCLE),
        "8-cycle with closing vertex is induced",
    )
    yield _partners_check(g)

    lat = gram_matrix(4)
    q = quotient_lattice(lat)
    ok = lat.rank() == 10 and len(q.radical_basis) == 6
    yield Check("lattice-ranks", ok, f"rank {lat.rank()}, radical {len(q.radical_basis)}")

    span14 = sublattice_rank(q, [g.index[v] for v in g.vertices if not g.is_extremal(v)])
    rect_ok = all(
        sum(gi[g.index[parse_vertex(v)]] * c for v, c in _RECTANGLE_RELATION.items()) == 0
        for gi in lat.gram
    )
    yield Check(
        "nonextremal-span",
        span14 == 9 and rect_ok,
        f"span {span14}; rectangle relation a_0011 - a_0110 - a_1001 + a_1100 "
        + ("lies" if rect_ok else "does NOT lie")
        + f" in the radical (see README, {_DEVIATIONS_SECTION!r})",
    )

    pair_ok = all(
        q.pairing(q.class_map[i], q.class_map[j]) == lat.gram[i][j]
        for i in range(16)
        for j in range(16)
    )
    yield Check("quotient-pairing", pair_ok, "all 120 pairs reproduce the Gram matrix")

    det = q.determinant()
    yield Check("unimodularity", abs(det) == 1, f"induced determinant {det}")

    by_sign = [_relations_check(q, g, sign) for sign in (1, -1)]
    yield Check(
        "transvection-shape",
        all(shape_ok for _, shape_ok in by_sign),
        "rank-1, square-zero, primitive, fixed dim 9 (both signs)",
    )
    yield Check(
        "pair-relations",
        not any(rep.pair_failures for rep, _ in by_sign),
        "braid/commute matches edges, 120 pairs (both signs)",
    )
    yield Check(
        "triangle-relations",
        not any(rep.triangle_failures for rep, _ in by_sign),
        "four-letter identity on every triangle (both signs)",
    )

    words = conjugacy_witnesses(q, g)
    yield Check("conjugacy-witnesses", len(words) == 16, "16 verified spanning-tree words")
    yield _qform_check(q, g)
    yield _closure_check(q, g, g.vertices)
    yield _parity_check(q)

    chain7 = bdata.load_pattern("chain7")
    res7 = min_genus(chain7, _PAPER_GENUS)
    surf_ok = res7.witness is not None and (
        surface_of(chain7, res7.witness).components == ((-6, 2, 3),)
    )
    yield Check(
        "chain-neighborhood",
        res7.kind == "exact" and res7.genus == 3 and surf_ok,
        f"A7 chain minimal genus {res7.genus}, neighborhood (chi,b,g)=(-6,2,3)",
    )

    r10 = is_realizable(bdata.load_pattern("curves10"), _PAPER_GENUS)
    yield Check(
        "ten-curve-realizable",
        r10.realizable and r10.witness is not None,
        f"10-curve pattern embeds at genus <= 5 (nodes {r10.nodes_explored})",
    )

    if fallback_only:
        p11 = bdata.load_pattern("curves11")
        r11 = min_genus(p11, _PAPER_GENUS, bdata.load_structure("u-placement"))
        yield Check(
            "eleven-curve-constrained",
            r11.kind == "exceeds" and r11.exhausted,
            f"with pinned placement: verdict {r11.kind}"
            + (f", genus {r11.genus}" if r11.genus is not None else "")
            + f" (nodes {r11.nodes_explored})",
        )
    else:
        p12 = bdata.load_pattern("curves12")
        r12 = is_realizable(p12, _PAPER_GENUS)
        traced = surface_of(p12, r12.witness).total_genus if r12.witness else None
        verdict = (
            f"realizable within genus {_PAPER_GENUS}, witness traces to genus {traced}"
            if r12.realizable
            else f"exceeds genus {_PAPER_GENUS} (exhausted={r12.exhausted})"
        )
        yield Check(
            "twelve-curve-pattern",
            r12.realizable and traced <= _PAPER_GENUS,
            f"{verdict} (nodes {r12.nodes_explored}); pattern-only minimum "
            f"{_CURVES12_PATTERN_MIN_GENUS}, see README, {_DEVIATIONS_SECTION!r}",
        )


def _scoreboard(run: _Run, args) -> int:
    rows = []
    for c in _paper_checks(args.fallback_only):
        rows.append(c)
        run.say(f"[{'PASS' if c.ok else 'FAIL'}] {c.name}: {c.detail}")
    passed = sum(c.ok for c in rows)
    run.say(f"scoreboard: {passed}/{len(rows)} checks pass")
    run.payload = {
        "rows": [{"name": c.name, "pass": c.ok, "detail": c.detail} for c in rows],
        "passed": passed,
        "total": len(rows),
    }
    run.verdicts.update({c.name: c.ok for c in rows})
    return EXIT_OK if passed == len(rows) else EXIT_CHECK_FAILED


# -- argument parsing ---------------------------------------------------------------


_THREADS_HELP = "accepted for compatibility; the search runs in one process"


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="twistlat",
        description=(
            "Exact verification toolkit: comparability-graph Artin data, the "
            "skew vanishing-cycle lattice, its transvection representation, "
            "and minimal-genus realizability of curve patterns."
        ),
    )
    ap.add_argument("--json", action="store_true", help="emit JSON with a run manifest")
    sub = ap.add_subparsers(dest="group", required=True)
    with_k = argparse.ArgumentParser(add_help=False)
    with_k.add_argument("--k", type=int, default=4)

    g = sub.add_parser("gamma", help="the comparability graph")
    gs = g.add_subparsers(dest="cmd", required=True)
    p = gs.add_parser("stats", parents=[with_k])
    p.set_defaults(func=cmd_gamma_stats, command_path="gamma stats")
    p = gs.add_parser("export", parents=[with_k])
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--output", "-o")
    p.set_defaults(func=cmd_gamma_export, command_path="gamma export")

    lt = sub.add_parser("lattice", help="the skew vanishing-cycle lattice")
    ls = lt.add_subparsers(dest="cmd", required=True)
    for what in ("gram", "radical", "quotient", "rank"):
        p = ls.add_parser(what, parents=[with_k])
        if what == "rank":
            p.add_argument("--subset", help="comma-separated bit-strings")
            p.add_argument("--non-extremal", action="store_true")
        p.set_defaults(func=cmd_lattice, what=what, command_path=f"lattice {what}")

    rp = sub.add_parser("rep", help="the symplectic transvection representation")
    rs = rp.add_subparsers(dest="cmd", required=True)
    p = rs.add_parser("check-relations", parents=[with_k])
    p.add_argument("--sign", choices=("1", "-1", "both"), default="both")
    p.set_defaults(func=cmd_rep_check_relations, command_path="rep check-relations")
    p = rs.add_parser("witnesses", parents=[with_k])
    p.add_argument("--sign", choices=("1", "-1"), default="1")
    p.set_defaults(func=cmd_rep_witnesses, command_path="rep witnesses")
    p = rs.add_parser("qform", parents=[with_k])
    p.set_defaults(func=cmd_rep_qform, command_path="rep qform")
    p = rs.add_parser("irreducible", parents=[with_k])
    p.add_argument("--seed", help="bit-string seed vertex (default: all)")
    p.set_defaults(func=cmd_rep_irreducible, command_path="rep irreducible")
    p = rs.add_parser("parity")
    p.set_defaults(func=cmd_rep_parity, command_path="rep parity")
    p = rs.add_parser("export", parents=[with_k])
    p.add_argument("--sign", choices=("1", "-1"), default="1")
    p.set_defaults(func=cmd_rep_export, command_path="rep export")

    ch = sub.add_parser("chains", help="induced chains and cycles")
    cs = ch.add_subparsers(dest="cmd", required=True)
    p = cs.add_parser("verify", parents=[with_k])
    p.add_argument("--seq", required=True, help="comma-separated bit-strings")
    p.add_argument("--cycle", action="store_true", help="check an induced cycle")
    p.set_defaults(func=cmd_chains_verify, command_path="chains verify")
    p = cs.add_parser("enumerate", parents=[with_k])
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--avoid-extremal", action="store_true")
    p.add_argument("--limit", type=int, default=20)
    p.set_defaults(func=cmd_chains_enumerate, command_path="chains enumerate")
    p = cs.add_parser("witnesses")
    p.set_defaults(func=cmd_chains_witnesses, command_path="chains witnesses")

    rl = sub.add_parser("realize", help="curve patterns and minimal genus")
    rs2 = rl.add_subparsers(dest="cmd", required=True)

    def _pattern_opts(p):
        p.add_argument("--pattern", help="pattern JSON file")
        p.add_argument(
            "--builtin",
            choices=bdata.builtin_pattern_names(),
            help="bundled pattern",
        )

    def _search_opts(p):
        p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
        p.add_argument("--node-cap", type=int)
        p.add_argument("--fixed", help="JSON file pinning a partial structure")
        p.add_argument(
            "--fixed-builtin",
            choices=tuple(sorted(bdata.STRUCTURE_FILES)),
            help="bundled pinned structure",
        )
        p.add_argument("--witness-out", help="write the witness JSON here")

    p = rs2.add_parser("validate")
    _pattern_opts(p)
    p.set_defaults(func=cmd_realize_validate, command_path="realize validate")
    p = rs2.add_parser("bound")
    _pattern_opts(p)
    p.set_defaults(func=cmd_realize_bound, command_path="realize bound")
    p = rs2.add_parser("min-genus")
    _pattern_opts(p)
    _search_opts(p)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_realize_min_genus, command_path="realize min-genus")
    p = rs2.add_parser("check")
    _pattern_opts(p)
    _search_opts(p)
    p.add_argument("--genus", type=int, required=True)
    p.set_defaults(func=cmd_realize_check, command_path="realize check")

    vp = sub.add_parser(
        "verify-paper",
        help="run the full verification pipeline and print a scoreboard",
    )
    vp.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    vp.add_argument(
        "--fallback-only",
        action="store_true",
        help="run the pinned 11-curve check instead of the full 12-curve search",
    )
    vp.set_defaults(func=_scoreboard, command_path="verify-paper")

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    run = _Run(args)
    try:
        _check_options(args)
        code = args.func(run, args)
    except (InvalidInputError, OSError, UnicodeDecodeError) as exc:
        run.lines = [f"invalid input: {exc}"]
        run.payload = {"error": str(exc)}
        return run.emit(EXIT_INVALID)
    except InconclusiveError as exc:
        run.lines = [f"inconclusive: {exc} (nodes explored: {exc.nodes_explored})"]
        run.payload = {"error": str(exc), "nodes_explored": exc.nodes_explored}
        return run.emit(EXIT_INCONCLUSIVE)
    return run.emit(code)


if __name__ == "__main__":
    sys.exit(main())
