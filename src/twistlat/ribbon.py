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
    """Traced neighborhood, one (chi, boundary_count, genus) per component,
    in ``CurvePattern.components()`` order (the component of the pattern's
    first curve first)."""

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
    crossing_bits: Mapping[tuple[Label, Label], int],
) -> RibbonStructure:
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
    (chi, boundary count, genus), in ``p.components()`` order.

    ``require_valid`` rejects isolated curves, so every curve has a
    crossing and the ribbon graph's components are the pattern's."""
    require_valid(p)
    problems = validate_structure(p, r)
    if problems:
        raise InvalidInputError("; ".join(problems))

    components = p.components()
    comp_of = {ci: c for c, members in enumerate(components) for ci in members}
    nv = [0] * len(components)
    ne, nf = nv[:], nv[:]

    # arc a is a step t -> t+1 along its curve's visit order: dart 2a leaves
    # visit t, dart 2a + 1 enters visit t+1.  slot[(partner, curve)] holds
    # the curve's (in, out) darts at its crossing with the partner.
    arc_curve: list[int] = []
    slot: dict[tuple[int, int], tuple[int, int]] = {}
    order_map = dict(r.visit_orders)
    for ci, lab in enumerate(p.curves):
        order = order_map[lab]
        first, m = len(arc_curve), len(order)
        arc_curve += [ci] * m
        ne[comp_of[ci]] += m
        for t, partner in enumerate(order):
            in_dart = 2 * (first + (t - 1) % m) + 1
            slot[(p.index(partner), ci)] = (in_dart, 2 * (first + t))

    sigma = [0] * (2 * len(arc_curve))  # next dart counterclockwise at its crossing
    bit_map = r.bits()
    for i, j in p.crossings():
        nv[comp_of[i]] += 1
        xi_in, xi_out = slot[(j, i)]
        xj_in, xj_out = slot[(i, j)]
        if bit_map[tuple(sorted((p.curves[i], p.curves[j])))] == 0:
            cyc = [xi_in, xj_in, xi_out, xj_out]
        else:
            cyc = [xi_in, xj_out, xi_out, xj_in]
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            sigma[a] = b

    # faces: cycles of d -> sigma(d ^ 1), d ^ 1 being the other end of d's arc
    seen = [False] * len(sigma)
    for d0 in range(len(sigma)):
        if seen[d0]:
            continue
        nf[comp_of[arc_curve[d0 // 2]]] += 1
        d = d0
        while not seen[d]:
            seen[d] = True
            d = sigma[d ^ 1]

    comps = []
    for v, e, b in zip(nv, ne, nf):
        g2 = 2 - (v - e) - b
        if g2 % 2 or g2 < 0:
            raise AssertionError("odd or negative genus; rotation data corrupt")
        comps.append((v - e, b, g2 // 2))
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
