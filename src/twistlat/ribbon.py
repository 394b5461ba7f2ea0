"""Ribbon structures over a curve pattern and the surfaces they trace.

A ribbon structure equips each curve with a cyclic order of its crossings
(recorded as the cyclic sequence of partner labels) and each crossing with
one bit choosing between the two alternating cyclic arrangements of the
four half-edges.  The regular neighborhood is recovered by boundary-walk
face tracing of the resulting 4-valent ribbon graph: per connected
component, chi = V - E and 2 - 2g - b = chi.

Conventions.  Curve orientations are part of the encoding, not of the
geometry: reversing one curve's cyclic order while flipping the bits at its
crossings yields the same surface, and flipping every bit is a mirror
image.  At a crossing of curves x < y (pattern order), bit 0 means the
counterclockwise order (x_in, y_in, x_out, y_out) and bit 1 means
(x_in, y_out, x_out, y_in).
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .errors import InvalidInputError
from .patterns import (
    CurvePattern,
    Label,
    reject_repeated_keys,
    require_label,
    require_list,
    require_valid,
    subpattern,
)


@dataclass(frozen=True)
class RibbonStructure:
    """Per-curve cyclic visit orders (partner labels) and per-crossing bits."""

    visit_orders: tuple[tuple[Label, tuple[Label, ...]], ...]
    crossing_bits: tuple[tuple[Label, Label, int], ...]

    def bits(self) -> dict[tuple[Label, Label], int]:
        return {tuple(sorted((a, b))): bit for a, b, bit in self.crossing_bits}

    def canonical(self) -> "RibbonStructure":
        """Rotate each cyclic order to start at its lowest-labeled partner
        and sort the bit list."""
        orders = []
        for lab, order in sorted(self.visit_orders):
            if order:
                k = order.index(min(order))
                order = order[k:] + order[:k]
            orders.append((lab, tuple(order)))
        bits = sorted(
            (min(a, b), max(a, b), bit) for a, b, bit in self.crossing_bits
        )
        return RibbonStructure(tuple(orders), tuple(bits))


@dataclass(frozen=True)
class RibbonSurface:
    """Traced neighborhood, one (chi, boundary_count, genus) per component."""

    components: tuple[tuple[int, int, int], ...]

    @property
    def total_genus(self) -> int:
        return sum(c[2] for c in self.components)

    @property
    def euler_characteristic(self) -> int:
        return sum(c[0] for c in self.components)

    @property
    def boundary_count(self) -> int:
        return sum(c[1] for c in self.components)


def make_structure(
    p: CurvePattern,
    visit_orders: Mapping[Label, Sequence[Label]],
    crossing_bits: Mapping[tuple[Label, Label], int] | Sequence[tuple[Label, Label, int]],
) -> RibbonStructure:
    if not isinstance(crossing_bits, Mapping):
        crossing_bits = {(a, b): bit for a, b, bit in crossing_bits}
    orders = tuple(
        (lab, tuple(visit_orders.get(lab, ()))) for lab in p.curves
    )
    bits = tuple(
        sorted((min(a, b), max(a, b), int(v)) for (a, b), v in crossing_bits.items())
    )
    return RibbonStructure(orders, bits).canonical()


def validate_structure(p: CurvePattern, r: RibbonStructure) -> list[str]:
    problems = []
    order_map = dict(r.visit_orders)
    if set(order_map) != set(p.curves):
        problems.append("visit orders do not cover exactly the pattern's curves")
        return problems
    for lab in p.curves:
        want = sorted(p.curves[j] for j in p.neighbors(p.index(lab)))
        got = sorted(order_map[lab])
        if want != got:
            problems.append(
                f"curve {lab!r} visits {got}, expected partners {want}"
            )
    want_bits = {
        tuple(sorted((p.curves[i], p.curves[j]))) for i, j in p.crossings()
    }
    listed = Counter(tuple(sorted((a, b))) for a, b, _ in r.crossing_bits)
    for key in sorted(key for key, n in listed.items() if n > 1):
        problems.append(f"crossing {key} listed more than once")
    got_bits = r.bits()
    if set(got_bits) != want_bits:
        problems.append("crossing bits do not cover exactly the crossing set")
    for key, bit in got_bits.items():
        if bit not in (0, 1):
            problems.append(f"bit out of range at {key}")
    return problems


def surface_of(p: CurvePattern, r: RibbonStructure) -> RibbonSurface:
    """Trace the ribbon graph's boundary walks and return per-component
    (chi, boundary count, genus)."""
    require_valid(p)
    problems = validate_structure(p, r)
    if problems:
        raise InvalidInputError("; ".join(problems))

    crossings = p.crossings()
    xid = {pair: t for t, pair in enumerate(crossings)}
    order_map = dict(r.visit_orders)
    bit_map = r.bits()

    # arcs: (curve index, step t) joins visit t -> t+1 (cyclically)
    arc_from: list[int] = []
    arc_to: list[int] = []
    arc_of_curve: dict[int, list[int]] = {}
    # per crossing and curve: [in_dart, out_dart]
    slot: dict[tuple[int, int], list[int]] = {}
    for ci, lab in enumerate(p.curves):
        order = order_map[lab]
        ids = []
        for partner in order:
            pj = p.index(partner)
            ids.append(xid[(min(ci, pj), max(ci, pj))])
        arcs = []
        m = len(ids)
        for t in range(m):
            a = len(arc_from)
            arc_from.append(ids[t])
            arc_to.append(ids[(t + 1) % m])
            arcs.append(a)
        arc_of_curve[ci] = arcs
        for t in range(m):
            x = ids[t]
            out_dart = 2 * arcs[t]
            in_dart = 2 * arcs[(t - 1) % m] + 1
            slot[(x, ci)] = [in_dart, out_dart]

    n_darts = 2 * len(arc_from)
    sigma = [0] * n_darts  # next dart counterclockwise at the same crossing
    for t, (i, j) in enumerate(crossings):
        xi_in, xi_out = slot[(t, i)]
        xj_in, xj_out = slot[(t, j)]
        key = tuple(sorted((p.curves[i], p.curves[j])))
        if bit_map[key] == 0:
            cyc = [xi_in, xj_in, xi_out, xj_out]
        else:
            cyc = [xi_in, xj_out, xi_out, xj_in]
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            sigma[a] = b

    # faces: cycles of sigma(alpha(d)) with alpha = arc-end swap
    seen = [False] * n_darts
    face_rep: list[int] = []
    face_of_dart = [0] * n_darts
    for d0 in range(n_darts):
        if seen[d0]:
            continue
        fid = len(face_rep)
        face_rep.append(d0)
        d = d0
        while True:
            seen[d] = True
            face_of_dart[d] = fid
            d = sigma[d ^ 1]
            if d == d0:
                break

    # connected components of the crossing graph
    parent = list(range(len(crossings)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in range(len(arc_from)):
        ra, rb = find(arc_from[a]), find(arc_to[a])
        if ra != rb:
            parent[ra] = rb

    comp_ids = sorted({find(t) for t in range(len(crossings))})
    comp_pos = {c: i for i, c in enumerate(comp_ids)}
    nv = [0] * len(comp_ids)
    ne = [0] * len(comp_ids)
    nf = [0] * len(comp_ids)
    for t in range(len(crossings)):
        nv[comp_pos[find(t)]] += 1
    for a in range(len(arc_from)):
        ne[comp_pos[find(arc_from[a])]] += 1
    for fid, rep in enumerate(face_rep):
        nf[comp_pos[find(arc_from[rep // 2])]] += 1

    comps = []
    for c in range(len(comp_ids)):
        chi = nv[c] - ne[c]
        b = nf[c]
        g2 = 2 - chi - b
        if g2 % 2:
            raise AssertionError("non-integer genus; rotation data corrupt")
        g = g2 // 2
        if g < 0:
            raise AssertionError("negative genus; rotation data corrupt")
        comps.append((chi, b, g))
    return RibbonSurface(components=tuple(comps))


def reflect(r: RibbonStructure) -> RibbonStructure:
    """Mirror image: reverse every cyclic order and flip every bit."""
    orders = tuple(
        (lab, tuple(reversed(order))) for lab, order in r.visit_orders
    )
    bits = tuple((a, b, 1 - bit) for a, b, bit in r.crossing_bits)
    return RibbonStructure(orders, bits).canonical()


def restrict(
    p: CurvePattern, r: RibbonStructure, labels: Sequence[Label]
) -> tuple[CurvePattern, RibbonStructure]:
    """Restriction of pattern and structure to a curve subset (curves the
    restriction isolates are dropped)."""
    sub = subpattern(p, labels)
    keep = set(sub.curves)
    orders = {}
    for lab, order in r.visit_orders:
        if lab in keep:
            orders[lab] = tuple(x for x in order if x in keep)
    bits = {
        (a, b): bit
        for a, b, bit in r.crossing_bits
        if a in keep and b in keep and sub.meets(a, b)
    }
    return sub, make_structure(sub, orders, bits)


def enumerate_structures(p: CurvePattern) -> Iterator[RibbonStructure]:
    """Every external ribbon structure: per-curve cyclic orders anchored at
    the lowest-labeled partner times all bit assignments.  Exponential; for
    oracles and small patterns only."""
    require_valid(p)
    crossings = p.crossings()
    per_curve: list[list[tuple[Label, ...]]] = []
    for ci, lab in enumerate(p.curves):
        partners = sorted(p.curves[j] for j in p.neighbors(ci))
        anchor, rest = partners[0], partners[1:]
        per_curve.append(
            [(anchor,) + perm for perm in itertools.permutations(rest)]
        )
    keys = [tuple(sorted((p.curves[i], p.curves[j]))) for i, j in crossings]
    for orders in itertools.product(*per_curve):
        visit = {lab: order for lab, order in zip(p.curves, orders)}
        for bits in itertools.product((0, 1), repeat=len(keys)):
            yield make_structure(p, visit, dict(zip(keys, bits)))


def naive_min_genus(p: CurvePattern) -> tuple[int, RibbonStructure]:
    """Minimum total genus by brute-force enumeration (oracle)."""
    best: tuple[int, RibbonStructure] | None = None
    for r in enumerate_structures(p):
        g = surface_of(p, r).total_genus
        if best is None or g < best[0]:
            best = (g, r)
    if best is None:
        raise InvalidInputError("pattern admits no ribbon structure")
    return best


def structure_to_json_dict(r: RibbonStructure) -> dict:
    c = r.canonical()
    return {
        "visit_orders": {lab: list(order) for lab, order in c.visit_orders},
        "crossing_bits": [[a, b, bit] for a, b, bit in c.crossing_bits],
    }


def structure_from_json(payload: str | dict) -> RibbonStructure:
    try:
        if isinstance(payload, str):
            payload = json.loads(payload, object_pairs_hook=reject_repeated_keys)
        orders = []
        for lab, seq in payload["visit_orders"].items():
            seq = require_list(seq, f"visit order of {lab!r}")
            orders.append((lab, tuple(map(require_label, seq))))
        bits = []
        for entry in require_list(payload["crossing_bits"], "crossing_bits"):
            a, b, v = require_list(entry, "a crossing bit")
            a, b = require_label(a), require_label(b)
            # bool is a subclass of int, so the type is tested exactly
            if type(v) is not int or v not in (0, 1):
                raise InvalidInputError(
                    f"bit of crossing ({a!r}, {b!r}) must be the integer 0 or 1, not {v!r}"
                )
            bits.append((a, b, v))
        return RibbonStructure(
            tuple(sorted(orders)),
            tuple(sorted((min(a, b), max(a, b), v) for a, b, v in bits)),
        ).canonical()
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed structure JSON: {exc}") from None
