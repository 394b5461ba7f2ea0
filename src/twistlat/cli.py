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
import os
import sys
import time

from . import __version__
from . import builtin as bdata
from .bitgraph import (
    AFFINE_CYCLE,
    BR8_CHAIN,
    build_gamma,
    parse_vertex,
    vertex_str,
)
from .errors import DegenerateFormError, InconclusiveError, InvalidInputError
from .lattice import (
    gram_matrix,
    lattice_to_json_dict,
    quotient_lattice,
    radical,
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
from .search import SearchConfig, is_realizable, min_genus
from .transvect import (
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
        self.t0 = time.time()
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
            "wall_time_s": round(time.time() - self.t0, 3),
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


def _load_pattern(run: _Run, args) -> CurvePattern:
    if getattr(args, "builtin", None):
        text = bdata.raw_file(bdata.PATTERN_FILES[args.builtin])
        run.input_hashes[f"builtin:{args.builtin}"] = _sha256(text)
        return bdata.load_pattern(args.builtin)
    if getattr(args, "pattern", None):
        with open(args.pattern, "r", encoding="utf-8") as fh:
            text = fh.read()
        run.input_hashes[args.pattern] = _sha256(text)
        return pattern_from_json(text)
    raise InvalidInputError("provide --pattern FILE or --builtin NAME")


def _default_cache_path(run: _Run, args) -> "str | None":
    """With TWISTLAT_CACHE_DIR set and no explicit --cache, long searches
    checkpoint into that directory under an input-derived name."""
    env = os.environ.get("TWISTLAT_CACHE_DIR")
    if not env:
        return None
    seed = json.dumps(
        [args.command_path, sorted(run.input_hashes.items())], sort_keys=True
    )
    return os.path.join(env, f"twistlat-{_sha256(seed)[:16]}.json")


def _search_config(run: _Run, args) -> SearchConfig:
    fixed = None
    if getattr(args, "fixed", None):
        with open(args.fixed, "r", encoding="utf-8") as fh:
            text = fh.read()
        run.input_hashes[args.fixed] = _sha256(text)
        fixed = structure_from_json(text)
    elif getattr(args, "fixed_builtin", None):
        text = bdata.raw_file(bdata.STRUCTURE_FILES[args.fixed_builtin])
        run.input_hashes[f"builtin:{args.fixed_builtin}"] = _sha256(text)
        fixed = bdata.load_structure(args.fixed_builtin)
    order = getattr(args, "order", "given")
    if order not in ("given", "degree"):
        order = tuple(order.split(","))
    cache = getattr(args, "cache", None) or _default_cache_path(run, args)
    return SearchConfig(
        order=order,
        threads=getattr(args, "threads", 1),
        node_cap=getattr(args, "node_cap", None),
        cache_path=cache,
        resume=getattr(args, "resume", False),
        fixed=fixed,
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
    if args.output:
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
        if args.subset:
            verts = [parse_vertex(s) for s in args.subset.split(",")]
        elif args.non_extremal:
            verts = [v for v in g.vertices if not g.is_extremal(v)]
        else:
            verts = list(g.vertices)
        idx = [g.index[v] for v in verts]
        r = sublattice_rank(q, idx)
        run.payload = {
            "subset": [vertex_str(v) for v in verts],
            "rank": r,
        }
        run.say(f"span of {len(verts)} classes has rank {r}")
        return EXIT_OK
    raise InvalidInputError(f"unknown lattice query {which!r}")


# -- rep -------------------------------------------------------------------------


def _signs(args) -> list[int]:
    if args.sign == "both":
        return [1, -1]
    return [int(args.sign)]


def cmd_rep_check_relations(run: _Run, args) -> int:
    g = build_gamma(args.k)
    q = quotient_lattice(gram_matrix(args.k))
    ok = True
    for sign in _signs(args):
        rep = verify_all_relations(q, g, sign=sign)
        shapes = [transvection_shape(q, v, sign) for v in g.vertices]
        shape_ok = all(s.ok for s in shapes)
        run.verdicts[f"relations(sign={sign:+d})"] = rep.ok
        run.verdicts[f"transvection-shape(sign={sign:+d})"] = shape_ok
        run.say(
            f"sign {sign:+d}: {rep.pairs_checked} pairs, "
            f"{rep.triangles_checked} triangles, "
            f"{'ok' if rep.ok and shape_ok else 'FAILED'}"
        )
        if not rep.ok:
            for item in rep.pair_failures[:5]:
                run.say(f"  pair failure: {item}")
            for item in rep.triangle_failures[:5]:
                run.say(f"  triangle failure: {item}")
        ok = ok and rep.ok and shape_ok
    run.payload = {"ok": ok}
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_rep_witnesses(run: _Run, args) -> int:
    g = build_gamma(args.k)
    q = quotient_lattice(gram_matrix(args.k))
    sign = int(args.sign) if args.sign != "both" else 1
    words = conjugacy_witnesses(q, g, sign=sign)
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
    g = build_gamma(args.k)
    q = quotient_lattice(gram_matrix(args.k))
    ref = quadratic_refinement(q)
    identity_ok = refinement_identity_ok(ref)
    invariant_ok = all(
        refinement_invariant_under(ref, q, v) for v in g.vertices
    )
    values_ok = all(ref.value(c) == 1 for c in q.class_map)
    ok = identity_ok and invariant_ok and values_ok
    run.verdicts["qform"] = ok
    run.payload = {
        "identity_ok": identity_ok,
        "invariant_ok": invariant_ok,
        "values_on_classes": [ref.value(c) for c in q.class_map],
        "table": list(ref.table),
    }
    run.say(
        f"quadratic refinement: identity {'ok' if identity_ok else 'FAILED'}, "
        f"invariance {'ok' if invariant_ok else 'FAILED'}, "
        f"q(class)=1 {'ok' if values_ok else 'FAILED'}"
    )
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_rep_irreducible(run: _Run, args) -> int:
    g = build_gamma(args.k)
    q = quotient_lattice(gram_matrix(args.k))
    if args.seed:
        seeds = [parse_vertex(args.seed)]
    else:
        seeds = list(g.vertices)
    dims = {}
    ok = True
    for v in seeds:
        d = invariant_span_closure(q, [q.class_map[g.index[v]]])
        dims[vertex_str(v)] = d
        ok = ok and d == q.rank
    run.payload = {"closure_dims": dims, "rank": q.rank}
    run.verdicts["irreducible"] = ok
    run.say(
        "invariant span closure from "
        + ("all single-generator seeds" if not args.seed else args.seed)
        + f": {'all ' if not args.seed else ''}{set(dims.values())} (rank {q.rank})"
    )
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_rep_parity(run: _Run, args) -> int:
    q = quotient_lattice(gram_matrix(4))
    nonzero, parity = chain_parity_check(q)
    ok = nonzero and parity == 1
    run.payload = {"nonzero": nonzero, "parity": parity}
    run.verdicts["parity"] = ok
    run.say(f"alternating chain sum: nonzero={nonzero}, pairing parity={parity}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_rep_export(run: _Run, args) -> int:
    g = build_gamma(args.k)
    q = quotient_lattice(gram_matrix(args.k))
    sign = int(args.sign) if args.sign != "both" else 1
    run.payload = rep_to_json_dict(q, g, sign)
    run.say("representation data exported (use --json to capture)")
    return EXIT_OK


# -- chains ----------------------------------------------------------------------


def _parse_seq(text: str) -> list:
    return [parse_vertex(s) for s in text.split(",") if s]


def cmd_chains_verify(run: _Run, args) -> int:
    g = build_gamma(args.k)
    seq = _parse_seq(args.seq)
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


def cmd_chains_witnesses(run: _Run, args) -> int:
    g = build_gamma(4)
    chain = list(BR8_CHAIN)
    rows = {}
    ok = True
    for v in g.vertices:
        w = g.commuting_partner_witness(chain, v)
        rows[vertex_str(v)] = w
        expect_some = not g.is_extremal(v)
        ok = ok and ((w is not None) == expect_some)
    run.payload = {"witnesses": rows}
    run.verdicts["commuting-partners"] = ok
    for v, w in sorted(rows.items()):
        run.say(f"  {v}: {'none' if w is None else f'chain position {w}'}")
    run.say("witness pattern " + ("consistent" if ok else "INCONSISTENT"))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


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


def cmd_realize_min_genus(run: _Run, args) -> int:
    p = _load_pattern(run, args)
    cfg = _search_config(run, args)
    res = min_genus(p, args.budget, cfg)
    run.payload = res.to_json_dict()
    run.verdicts["min-genus"] = res.kind
    if res.kind == "exact":
        run.say(
            f"exact minimal genus {res.genus} "
            f"(nodes {res.nodes_explored}, {res.wall_time_s:.1f}s)"
        )
        if args.witness_out and res.witness is not None:
            with open(args.witness_out, "w", encoding="utf-8") as fh:
                json.dump(
                    structure_to_json_dict(res.witness), fh, sort_keys=True, indent=1
                )
            run.say(f"witness written to {args.witness_out}")
    else:
        run.say(
            f"exceeds budget {res.budget} (exhausted={res.exhausted}, "
            f"nodes {res.nodes_explored}, {res.wall_time_s:.1f}s)"
            + (f"; {res.note}" if res.note else "")
        )
    return EXIT_OK


def cmd_realize_check(run: _Run, args) -> int:
    p = _load_pattern(run, args)
    cfg = _search_config(run, args)
    res = is_realizable(p, args.genus, cfg)
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
        if args.witness_out:
            with open(args.witness_out, "w", encoding="utf-8") as fh:
                json.dump(
                    structure_to_json_dict(res.witness), fh, sort_keys=True, indent=1
                )
            run.say(f"witness written to {args.witness_out}")
    return EXIT_OK


# -- verify-paper ------------------------------------------------------------------


#: A relation in the radical supported on non-extremal vertices; it cuts the
#: span of the 14 non-extremal classes down to rank 9.
_RECTANGLE_RELATION = {"0011": 1, "0110": -1, "1001": -1, "1100": 1}

#: Pattern-only minimal genus of the twelve-curve pattern, certified by
#: `realize min-genus --builtin curves12` (a structure reaches the F2 bound).
_CURVES12_PATTERN_MIN_GENUS = 4

_DEVIATIONS_SECTION = "Computed deviations from the stated values"


def _scoreboard(run: _Run, args) -> int:
    rows: list[tuple[str, bool, str]] = []

    def row(name: str, ok: bool, detail: str) -> None:
        rows.append((name, ok, detail))
        run.say(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")

    g = build_gamma(4)
    g3 = build_gamma(3)
    ok = (
        len(g.vertices) == 16
        and len(g.edges) == 65
        and len(g3.vertices) == 8
        and len(g3.edges) == 19
    )
    agree = True
    for k in (1, 2, 3, 4, 5):
        gk = build_gamma(k)
        agree = agree and all(
            gk.is_edge(u, v) == gk.is_edge(u, v, rule="sign-pairs")
            for u in gk.vertices
            for v in gk.vertices
            if u != v
        )
    row(
        "graph-shape",
        ok and agree,
        f"k=4: {len(g.vertices)}v/{len(g.edges)}e, k=3: "
        f"{len(g3.vertices)}v/{len(g3.edges)}e, edge rules agree k<=5: {agree}",
    )

    ext = g.extremal_vertices()
    ok = set(ext) == {(0, 0, 0, 0), (1, 1, 1, 1)} and all(
        g.degree(v) == 15 for v in ext
    )
    row("extremal-vertices", ok, f"{[vertex_str(v) for v in ext]} degree 15")

    rep = g.verify_chain(BR8_CHAIN)
    row("seven-chain", rep.is_chain, "canonical 7-chain spans an induced path")

    cyc = g.verify_induced_cycle(AFFINE_CYCLE)
    row("affine-cycle", cyc, "8-cycle with closing vertex is induced")

    non_ext = [v for v in g.vertices if not g.is_extremal(v)]
    wit = {v: g.commuting_partner_witness(BR8_CHAIN, v) for v in g.vertices}
    ok = all(wit[v] is not None for v in non_ext) and all(
        wit[v] is None for v in ext
    )
    row("commuting-partners", ok, "witness for all 14 non-extremal, none for extremal")

    lat = gram_matrix(4)
    q = quotient_lattice(lat)
    ok = lat.rank() == 10 and len(q.radical_basis) == 6
    row("lattice-ranks", ok, f"rank {lat.rank()}, radical {len(q.radical_basis)}")

    span14 = sublattice_rank(q, [g.index[v] for v in non_ext])
    rect = [0] * len(g.vertices)
    for v, coeff in _RECTANGLE_RELATION.items():
        rect[g.index[parse_vertex(v)]] = coeff
    rect_ok = all(
        sum(gij * x for gij, x in zip(gi, rect)) == 0 for gi in lat.gram
    )
    row(
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
    row("quotient-pairing", pair_ok, "all 120 pairs reproduce the Gram matrix")

    det = q.determinant()
    row("unimodularity", abs(det) == 1, f"induced determinant {det}")

    shape_ok = True
    pairs_ok = True
    tris_ok = True
    for sign in (1, -1):
        shapes = [transvection_shape(q, v, sign) for v in g.vertices]
        shape_ok = shape_ok and all(s.ok for s in shapes)
        r = verify_all_relations(q, g, sign=sign)
        pairs_ok = pairs_ok and not r.pair_failures
        tris_ok = tris_ok and not r.triangle_failures
    row("transvection-shape", shape_ok, "rank-1, square-zero, primitive, fixed dim 9 (both signs)")
    row("pair-relations", pairs_ok, "braid/commute matches edges, 120 pairs (both signs)")
    row("triangle-relations", tris_ok, "four-letter identity on every triangle (both signs)")

    words = conjugacy_witnesses(q, g)
    row("conjugacy-witnesses", len(words) == 16, "16 verified spanning-tree words")

    ref = quadratic_refinement(q)
    q_ok = (
        refinement_identity_ok(ref)
        and all(ref.value(c) == 1 for c in q.class_map)
        and all(refinement_invariant_under(ref, q, v) for v in g.vertices)
    )
    row("quadratic-refinement", q_ok, "q=1 on classes, identity + invariance exhaustively")

    irr_ok = all(
        invariant_span_closure(q, [q.class_map[g.index[v]]]) == 10
        for v in g.vertices
    )
    row("irreducibility", irr_ok, "closure from each generator direction = 10")

    nonzero, parity = chain_parity_check(q)
    row("homology-parity", nonzero and parity == 1, f"sum nonzero={nonzero}, parity={parity}")

    chain7 = bdata.load_pattern("chain7")
    res7 = min_genus(chain7, 5)
    surf_ok = False
    if res7.witness is not None:
        s = surface_of(chain7, res7.witness)
        surf_ok = s.components == ((-6, 2, 3),)
    row(
        "chain-neighborhood",
        res7.kind == "exact" and res7.genus == 3 and surf_ok,
        f"A7 chain minimal genus {res7.genus}, neighborhood (chi,b,g)=(-6,2,3)",
    )

    cfg = SearchConfig(
        threads=args.threads,
        cache_path=args.cache,
        resume=args.resume,
    )
    p10 = bdata.load_pattern("curves10")
    r10 = is_realizable(p10, 5, cfg)
    row(
        "ten-curve-realizable",
        r10.realizable and r10.witness is not None,
        f"10-curve pattern embeds at genus <= 5 (nodes {r10.nodes_explored})",
    )

    if args.fallback_only:
        p11 = bdata.load_pattern("curves11")
        fixed = bdata.load_structure("u-placement")
        cfg11 = SearchConfig(
            threads=args.threads,
            cache_path=args.cache,
            resume=args.resume,
            fixed=fixed,
        )
        r11 = min_genus(p11, args.budget, cfg11)
        ok11 = r11.kind == "exceeds" and r11.exhausted
        row(
            "eleven-curve-constrained",
            ok11,
            f"with pinned placement: verdict {r11.kind}"
            + (f", genus {r11.genus}" if r11.genus is not None else "")
            + f" (nodes {r11.nodes_explored})",
        )
    else:
        p12 = bdata.load_pattern("curves12")
        r12 = is_realizable(p12, args.budget, cfg)
        traced = surface_of(p12, r12.witness).total_genus if r12.witness else None
        if args.budget >= _CURVES12_PATTERN_MIN_GENUS:
            ok12 = r12.realizable and traced <= args.budget
        else:
            ok12 = not r12.realizable and r12.exhausted
        verdict = (
            f"realizable within genus {args.budget}, witness traces to genus {traced}"
            if r12.realizable
            else f"exceeds genus {args.budget} (exhausted={r12.exhausted})"
        )
        row(
            "twelve-curve-pattern",
            ok12,
            f"{verdict} (nodes {r12.nodes_explored}); pattern-only minimum "
            f"{_CURVES12_PATTERN_MIN_GENUS}, see README, {_DEVIATIONS_SECTION!r}",
        )

    passed = sum(1 for _, ok, _ in rows if ok)
    run.say(f"scoreboard: {passed}/{len(rows)} checks pass")
    run.payload = {
        "rows": [
            {"name": name, "pass": ok, "detail": detail} for name, ok, detail in rows
        ],
        "passed": passed,
        "total": len(rows),
    }
    run.verdicts.update({name: ok for name, ok, _ in rows})
    return EXIT_OK if passed == len(rows) else EXIT_CHECK_FAILED


# -- argument parsing ---------------------------------------------------------------


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

    g = sub.add_parser("gamma", help="the comparability graph")
    gs = g.add_subparsers(dest="cmd", required=True)
    p = gs.add_parser("stats")
    p.add_argument("--k", type=int, default=4)
    p.set_defaults(func=cmd_gamma_stats, command_path="gamma stats")
    p = gs.add_parser("export")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--output", "-o")
    p.set_defaults(func=cmd_gamma_export, command_path="gamma export")

    lt = sub.add_parser("lattice", help="the skew vanishing-cycle lattice")
    ls = lt.add_subparsers(dest="cmd", required=True)
    for what in ("gram", "radical", "quotient", "rank"):
        p = ls.add_parser(what)
        p.add_argument("--k", type=int, default=4)
        if what == "rank":
            p.add_argument("--subset", help="comma-separated bit-strings")
            p.add_argument("--non-extremal", action="store_true")
        p.set_defaults(func=cmd_lattice, what=what, command_path=f"lattice {what}")

    rp = sub.add_parser("rep", help="the symplectic transvection representation")
    rs = rp.add_subparsers(dest="cmd", required=True)
    p = rs.add_parser("check-relations")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--sign", choices=("1", "-1", "both"), default="both")
    p.set_defaults(func=cmd_rep_check_relations, command_path="rep check-relations")
    p = rs.add_parser("witnesses")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--sign", choices=("1", "-1"), default="1")
    p.set_defaults(func=cmd_rep_witnesses, command_path="rep witnesses")
    p = rs.add_parser("qform")
    p.add_argument("--k", type=int, default=4)
    p.set_defaults(func=cmd_rep_qform, command_path="rep qform")
    p = rs.add_parser("irreducible")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--seed", help="bit-string seed vertex (default: all)")
    p.set_defaults(func=cmd_rep_irreducible, command_path="rep irreducible")
    p = rs.add_parser("parity")
    p.set_defaults(func=cmd_rep_parity, command_path="rep parity")
    p = rs.add_parser("export")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--sign", choices=("1", "-1"), default="1")
    p.set_defaults(func=cmd_rep_export, command_path="rep export")

    ch = sub.add_parser("chains", help="induced chains and cycles")
    cs = ch.add_subparsers(dest="cmd", required=True)
    p = cs.add_parser("verify")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--seq", required=True, help="comma-separated bit-strings")
    p.add_argument("--cycle", action="store_true", help="check an induced cycle")
    p.set_defaults(func=cmd_chains_verify, command_path="chains verify")
    p = cs.add_parser("enumerate")
    p.add_argument("--k", type=int, default=4)
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
        p.add_argument("--order", default="given", help='"given", "degree", or a,b,c,...')
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--node-cap", type=int)
        p.add_argument("--cache", help="checkpoint file for resume")
        p.add_argument("--resume", action="store_true")
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
    vp.add_argument("--budget", type=int, default=5)
    vp.add_argument("--threads", type=int, default=1)
    vp.add_argument("--cache")
    vp.add_argument("--resume", action="store_true")
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
        code = args.func(run, args)
    except InvalidInputError as exc:
        run.say(f"invalid input: {exc}")
        run.payload = {"error": str(exc)}
        return run.emit(EXIT_INVALID)
    except InconclusiveError as exc:
        run.say(f"inconclusive: {exc} (nodes explored: {exc.nodes_explored})")
        run.payload = {"error": str(exc), "nodes_explored": exc.nodes_explored}
        return run.emit(EXIT_INCONCLUSIVE)
    except FileNotFoundError as exc:
        run.say(f"invalid input: {exc}")
        run.payload = {"error": str(exc)}
        return run.emit(EXIT_INVALID)
    return run.emit(code)


if __name__ == "__main__":
    sys.exit(main())
