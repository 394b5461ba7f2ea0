"""Exact minimal-genus search over ribbon structures.

Curves are inserted one at a time, in pattern order with pinned curves
first.  Placing a curve means choosing, crossing by crossing, which
partner comes next in its cyclic order, which arc of the partner the
crossing subdivides, and the crossing's orientation bit.  After every
placement the partial ribbon graph's neighborhood genus is updated from
the link it adds, by Euler's formula: subdividing an arc, or a loop at a
crossing with no links yet, keeps the genus; a link joining two components
keeps it; a link within one component raises it by 1 exactly when its two
corners lie on different faces.  Components are read off the insertion
plan, not tracked: every inserted curve but the one being placed is
complete, so a crossing lies in the component of its partner among the
curves inserted before, and the open strand joins the components of the
partners it has met.  Each search node walks one face, the one at its
strand's open end, once some partner lies in a component the strand has
met; every child's genus change is read off that walk before the child is
built, and its placement adds the change.  Only a strand's closure walks a
face at the link itself: a pin is traced once by `ribbon.surface_of`, and
the search starts at the pin's genus.  Since a sub-ribbon-graph's
neighborhood embeds in any completion's neighborhood, the partial genus is
a valid lower bound and branches exceeding the budget (or the best leaf so
far) are pruned: a child whose genus change would take it past that cutoff
is counted as a node but not built.  Every leaf within the budget is
re-traced by `ribbon.surface_of`, which must agree.  "Exceeds" verdicts
are issued only after the pruned tree is exhausted (or when the budget is
already below the homology bound or the pinned structure's own genus);
exact minima are certified early once some structure reaches the homology
bound, since nothing can lie below it.  There is one search mode: it stops
once a structure has genus <= a stop genus.  `min_genus` stops at the
homology bound; `is_realizable(p, g)` is the same search stopped at g, so
it ends at the first structure within the budget.

The internal state is orientation-free: rotations live on slot pairs
created in insertion order, so the per-curve orientation redundancy of the
external (visit order, bits) encoding never enters the tree.  On top of
that, each cyclic order is anchored at the lowest-labeled partner, a newly
inserted curve's cyclic order is enumerated up to reversal, and an unpinned
search (always of one connected component) pins the bit of its first
crossing to quotient out the mirror image.

Each pattern is searched by one depth-first walk of the whole tree, which
keeps one best genus: a witness found anywhere prunes everything after it.
The node cap is one budget for the walk, which stops at the first node past
it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InconclusiveError, InvalidInputError
from .patterns import (
    CurvePattern,
    Label,
    f2_genus_lower_bound,
    pattern_from_json,  # noqa: F401  perfbench/spans.py wraps it by __dict__ lookup
    require_valid,
    subpattern,
)
from .ribbon import (
    RibbonStructure,
    make_structure,
    structure_to_json_dict,
    surface_of,
)

def _next_linked_table() -> tuple[tuple[int, ...], ...]:
    """Row ``16 * bit + mask`` gives, for each dart offset at a crossing,
    the offset of the next linked dart (a ``mask`` bit) in the rotation, or
    the offset itself when no other dart is linked.  A crossing with bit b
    has the rotation of offsets (0, 2 + b, 1, 3 - b)."""
    rows = []
    for row in range(32):
        bitv, mask = divmod(row, 16)
        cyc = (0, 2 + bitv, 1, 3 - bitv)
        nxt = []
        for off in range(4):
            pos = cyc.index(off)
            later = [cyc[(pos + step) & 3] for step in (1, 2, 3)]
            nxt.append(next((o for o in later if mask >> o & 1), off))
        rows.append(tuple(nxt))
    return tuple(rows)


_NEXT_LINKED = _next_linked_table()


@dataclass(frozen=True)
class SearchResult:
    """Outcome of `min_genus` (an exact minimum) or `is_realizable` (a
    first witness within the budget), or a certified Exceeds(budget)."""

    kind: str  # "exact" | "realizable" | "exceeds"
    budget: int
    genus: Optional[int]  # the witness's genus; None on "exceeds"
    witness: Optional[RibbonStructure]
    nodes_explored: int
    exhausted: bool
    wall_time_s: float
    note: str = ""

    def __post_init__(self):
        if self.kind == "exceeds" and not self.exhausted:
            raise AssertionError("Exceeds verdicts require exhaustion")
        if self.kind not in ("exact", "realizable", "exceeds"):
            raise AssertionError(f"unknown verdict kind {self.kind!r}")

    @property
    def realizable(self) -> bool:
        return self.kind != "exceeds"

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.kind,
            "budget": self.budget,
            "genus": self.genus,
            "witness": (
                structure_to_json_dict(self.witness) if self.witness else None
            ),
            "nodes_explored": self.nodes_explored,
            "exhausted": self.exhausted,
            "wall_time_s": round(self.wall_time_s, 3),
            "note": self.note,
        }


# ---------------------------------------------------------------------------
# engine


class _Engine:
    """Insertion search on one pattern: `run` walks the whole tree depth
    first, pruning against one best genus, until a structure reaches the
    stop genus or the tree is exhausted.  The walk makes two kinds of
    change, placing one crossing and closing one strand, and undoes each
    by its exact inverse, last in, first out."""

    def __init__(
        self,
        pattern: CurvePattern,
        budget: int,
        stop_genus: int,
        fixed: Optional[RibbonStructure] = None,
        node_cap: Optional[int] = None,
        pin_genus: int = 0,
    ):
        self.p = pattern
        self.budget = budget
        self.node_cap = node_cap
        self.stop_genus = stop_genus  # stop once a structure has genus <= it

        pinned = {lab for lab, _ in fixed.visit_orders} if fixed is not None else set()
        # reflection pinning is a symmetry quotient only without a pinned
        # prefix; an unpinned engine always gets a connected pattern
        self.anchor = None if fixed is not None else min(pattern.crossings())
        # the insertion plan: per position in pattern order, pinned curves
        # first, the curve, its inserted partners and whether to skip
        # reversed cyclic orders; None for a curve with nothing to place
        self.plan: list[Optional[tuple[int, tuple[int, ...], bool]]] = []
        # per position, the component of every curve among the curves
        # inserted before it, named by one of its curves; a curve not yet
        # inserted names itself
        self.comp: list[tuple[int, ...]] = []
        order = sorted(
            range(len(pattern.curves)), key=lambda i: pattern.curves[i] not in pinned
        )
        inserted: set[int] = set()
        comp = list(range(len(pattern.curves)))
        for c in order:
            partners = tuple(sorted(inserted.intersection(pattern.neighbors(c))))
            inserted.add(c)
            self.comp.append(tuple(comp))
            joined = {comp[q] for q in partners}
            comp = [c if name in joined else name for name in comp]
            if pattern.curves[c] in pinned or not partners:
                self.plan.append(None)
            else:
                filter_ok = len(partners) >= 3 and c not in (self.anchor or ())
                self.plan.append((c, partners, filter_ok))

        # dynamic state
        self.cross: list[tuple[int, int]] = []  # (curve_lo, curve_hi)
        self.link: list[int] = []  # dart -> dart | -1
        # per crossing: 16 * bit + mask of linked darts, a _NEXT_LINKED row
        self.row: list[int] = []
        # total genus of the partial ribbon graph: the pin's traced genus
        self.genus = pin_genus
        self.arcs: dict[int, list[tuple[int, int]]] = {
            i: [] for i in range(len(pattern.curves))
        }
        self.nodes = 0

        # results
        self.best_genus: Optional[int] = None
        self.best_witness: Optional[RibbonStructure] = None

        if fixed is not None:
            self._load_fixed(order[: len(pinned)], fixed)

    # -- links and faces -----------------------------------------------------

    def _dart(self, x: int, side: int, slot: int) -> int:
        return 4 * x + 2 * side + slot

    def _attach(self, d1: int, d2: int) -> None:
        self.link[d1] = d2
        self.link[d2] = d1
        self.row[d1 >> 2] |= 1 << (d1 & 3)
        self.row[d2 >> 2] |= 1 << (d2 & 3)

    def _detach(self, d1: int, d2: int) -> None:
        self.link[d1] = -1
        self.link[d2] = -1
        self.row[d1 >> 2] &= ~(1 << (d1 & 3))
        self.row[d2 >> 2] &= ~(1 << (d2 & 3))

    def _corner(self, d: int) -> int:
        """The corner that open dart ``d`` would be linked into, named by
        the next linked dart in the rotation."""
        return (d & ~3) | _NEXT_LINKED[self.row[d >> 2]][d & 3]

    def _face(self, d: int) -> set[int]:
        """The corners of the face at open dart ``d``'s corner, collected
        by one face walk."""
        link, row, nxt = self.link, self.row, _NEXT_LINKED
        d = self._corner(d)
        face: set[int] = set()
        while d not in face:
            face.add(d)
            e = link[d]
            d = (e & ~3) | nxt[row[e >> 2]][e & 3]
        return face

    def _link_step(self, d1: int, d2: int) -> int:
        """The genus change of closing a strand, linking its open out-dart
        ``d1`` to its first in-dart ``d2``, by one face walk at the link.
        A strand lies in one component and its crossings have links, so
        the closure raises the genus exactly when its corners lie on
        different faces.  Only a strand's closure walks a face at the link
        itself."""
        return int(self._corner(d2) not in self._face(d1))

    def _join(self, c: int, d1: int, d2: int, step: int) -> None:
        """Link the open out-dart ``d1`` of curve ``c`` to its next in-dart
        ``d2``, append the arc to ``c``'s arcs, and add ``step``, the link's
        genus change, to the genus.  A placement's step is read off its
        search node's face walk (`_genus_step`), a closure's off a walk at
        the link itself (`_link_step`), and a pinned link adds none, the
        pin's genus being traced before the search; `_join` walks no
        face."""
        self.genus += step
        self._attach(d1, d2)
        self.arcs[c].append((d1, d2))

    def _unjoin(self, c: int) -> None:
        """Undo `_join` on curve ``c`` but for the genus, which the caller
        restores."""
        self._detach(*self.arcs[c].pop())

    def _new_crossing(self, ci: int, cj: int, bitv: int) -> int:
        x = len(self.cross)
        self.cross.append((min(ci, cj), max(ci, cj)))
        self.link.extend((-1, -1, -1, -1))
        self.row.append(16 * bitv)
        return x

    # -- placements ----------------------------------------------------------

    def _place_crossing(
        self,
        c: int,
        partner: int,
        gap: int,
        bitv: int,
        strand: list[int],
        step: int,
    ) -> None:
        x = self._new_crossing(c, partner, bitv)
        side_c = int(c > partner)
        d0 = self._dart(x, 1 - side_c, 0)
        d1 = self._dart(x, 1 - side_c, 1)
        p_arcs = self.arcs[partner]
        if p_arcs:
            # subdividing an arc keeps the genus; d_a and d_b stay linked,
            # so only the new crossing's row changes
            d_a, d_b = p_arcs[gap]
            self._attach(d_a, d0)
            self._attach(d1, d_b)
            p_arcs[gap : gap + 1] = ((d_a, d0), (d1, d_b))
        else:
            # partner's first crossing: its closed curve becomes a loop arc,
            # which keeps the genus
            self._attach(d1, d0)
            p_arcs.append((d1, d0))
        d_in = self._dart(x, side_c, 0)
        if strand:
            self._join(c, strand[-1], d_in, step)
        strand.append(d_in ^ 1)

    def _unplace_crossing(
        self, c: int, partner: int, gap: int, strand: list[int]
    ) -> None:
        """Undo `_place_crossing` but for the genus, which the caller
        restores.  The new crossing is the last one, so popping it drops
        its row and links; older crossings' rows never changed."""
        strand.pop()
        if strand:
            self._unjoin(c)
        p_arcs = self.arcs[partner]
        if len(p_arcs) == 1:
            p_arcs.pop()
        else:
            d_a, d_b = p_arcs[gap][0], p_arcs.pop(gap + 1)[1]
            p_arcs[gap] = (d_a, d_b)
            self.link[d_a] = d_b
            self.link[d_b] = d_a
        self.cross.pop()
        self.row.pop()
        del self.link[-4:]

    def _genus_step(self, c, q, gap, bitv, same, face) -> int:
        """The genus change that `_place_crossing` (c, q, gap, bitv) adds.
        Subdividing the arc (d_a, d_b) keeps every face, and the new
        crossing's corner lies on the face of ``d_a`` or of ``d_b``, by its
        bit and its side; so the one link raises the genus exactly when it is
        within one component (``same``) and the corner is not on ``face``,
        the node's one walk of the face at the strand's open end."""
        if not same:
            return 0
        d_a, d_b = self.arcs[q][gap]
        corner = d_a if (c > q) == (bitv == 0) else d_b
        return 0 if corner in face else 1

    # -- external structure extraction / loading -------------------------------

    def extract_structure(self) -> RibbonStructure:
        """Convert the complete internal state to the external encoding.
        Each curve's arcs list its crossings in travel order; its visit
        order is read off them, rotated to its lowest partner, and kept in
        the direction whose label list is smaller (forwards on a tie).  A
        crossing's bit is its internal bit, flipped once for each of its
        curves that is read backwards."""
        p, cross = self.p, self.cross
        orders: dict[Label, list[Label]] = {}
        rev = [0] * len(p.curves)
        for c, arcs in self.arcs.items():
            # lo + hi - c is c's partner at the crossing (lo, hi)
            order = [p.curves[sum(cross[d >> 2]) - c] for d, _ in arcs]
            if order:
                k = order.index(min(order))
                order = order[k:] + order[:k]
                back = order[:1] + order[:0:-1]
                rev[c] = int(back < order)
                order = back if rev[c] else order
            orders[p.curves[c]] = order
        bits = {
            (p.curves[lo], p.curves[hi]): (self.row[x] >> 4) ^ rev[lo] ^ rev[hi]
            for x, (lo, hi) in enumerate(cross)
        }
        return make_structure(p, orders, bits)

    def _load_fixed(self, curves: list[int], fixed: RibbonStructure) -> None:
        """Lay out a complete structure on the pinned ``curves``, which
        `_search` has validated and traced by `surface_of`: one crossing
        per crossing of the pattern between two pinned curves, and then
        each curve's links in its visit order.  The engine starts at the
        pin's traced genus, so no link walks a face."""
        p = self.p
        # a curve's arcs are laid out from the first entry of its cyclic
        # order, so lay out the canonical rotation
        order_map = dict(fixed.canonical().visit_orders)
        bit_map = fixed.bits()
        xid: dict[tuple[int, int], int] = {}
        for i, j in p.crossings():
            if i in curves and j in curves:
                bitv = bit_map[tuple(sorted((p.curves[i], p.curves[j])))]
                xid[(i, j)] = self._new_crossing(i, j, bitv)
        for ci in curves:
            ins = [
                self._dart(xid[(min(ci, pj), max(ci, pj))], int(ci > pj), 0)
                for pj in map(p.index, order_map[p.curves[ci]])
            ]
            for t, d in enumerate(ins):
                self._join(ci, d ^ 1, ins[(t + 1) % len(ins)], 0)

    # -- search -----------------------------------------------------------------

    def run(self) -> None:
        self._dfs_curve(0)

    def _cutoff(self) -> int:
        if self.best_genus is None:
            return self.budget
        return min(self.budget, self.best_genus - 1)

    def _stopped(self) -> bool:
        return self.best_genus is not None and self.best_genus <= self.stop_genus

    def _check_cap(self) -> None:
        if self.node_cap is not None and self.nodes > self.node_cap:
            raise InconclusiveError(
                f"node cap {self.node_cap} exceeded before exhaustion",
                nodes_explored=self.nodes,
            )

    def _dfs_curve(self, k: int) -> None:
        if k == len(self.plan):
            self._leaf()
            return
        step = self.plan[k]
        if step is None:
            self._dfs_curve(k + 1)
            return
        c, partners, filter_ok = step
        self._dfs_place(c, k, partners, [], None, filter_ok, 0)

    def _bit_choices(self, c: int, q: int) -> tuple[int, ...]:
        if (min(c, q), max(c, q)) == self.anchor:
            return (0,)
        return (0, 1)

    def _dfs_place(self, c, k, remaining, strand, q2, filter_ok, seen):
        """Place the strand's next crossing, to one of the ``remaining``
        partners; its first crossing goes to its lowest partner, which
        anchors the cyclic order, and ``q2`` is the partner of its second.
        ``seen`` is the bitmask of the components (`comp` names) its
        crossings lie in: a placement links within one component exactly
        when its partner's bit is set.  The face at the strand's open end
        is walked once, at the first such partner, and every child's genus
        change is read off that walk."""
        genus = self.genus
        if not remaining:
            # closure of the strand: link its last out-dart to its first
            # in-dart, one forced option
            d1, d2 = strand[-1], strand[0] ^ 1
            self._join(c, d1, d2, self._link_step(d1, d2))
            self.nodes += 1
            self._check_cap()
            if self.genus <= self._cutoff():
                self._dfs_curve(k + 1)
            self._unjoin(c)
            self.genus = genus
            return

        comp = self.comp[k]
        face = None  # the face at the strand's open end, walked on demand
        cutoff = self._cutoff()
        for q in remaining if strand else remaining[:1]:
            if filter_ok and len(remaining) == 1 and q < q2:
                continue  # this cyclic order is the reversal of one already done
            same = seen >> comp[q] & 1
            if same and face is None:
                face = self._face(strand[-1])
            bits = self._bit_choices(c, q)
            rest = [r for r in remaining if r != q]
            nxt_q2 = q if len(strand) == 1 else q2
            nxt_seen = seen | 1 << comp[q]
            for gap in range(max(1, len(self.arcs[q]))):
                for bitv in bits:
                    step = self._genus_step(c, q, gap, bitv, same, face)
                    if genus + step > cutoff:
                        # pruned on creation: counted as a node, never built
                        self.nodes += 1
                        self._check_cap()
                        continue
                    self._place_crossing(c, q, gap, bitv, strand, step)
                    self.nodes += 1
                    self._check_cap()
                    self._dfs_place(c, k, rest, strand, nxt_q2, filter_ok, nxt_seen)
                    self._unplace_crossing(c, q, gap, strand)
                    self.genus = genus
                    if self._stopped():
                        return
                    # a witness found under that child may have lowered it
                    cutoff = self._cutoff()

    def _leaf(self) -> None:
        g = self.genus
        if g > self.budget:
            return
        witness = self.extract_structure()
        traced = surface_of(self.p, witness)
        if traced.total_genus != g:
            raise AssertionError("internal/external trace mismatch")
        if self.best_genus is None or g < self.best_genus:
            self.best_genus = g
            self.best_witness = witness


# ---------------------------------------------------------------------------
# public API


def _default_budget(p: CurvePattern) -> int:
    # chi = -V, so a connected neighborhood with b >= 1 boundaries has genus
    # (V + 2 - b) / 2, within (V + 2) // 2 + 1; components' genera add up
    budget = 0
    for comp in p.components():
        v = sum(sum(p.inter[i]) for i in comp) // 2  # the component's crossings
        budget += (v + 2) // 2 + 1
    return budget


def min_genus(
    p: CurvePattern,
    budget: Optional[int] = None,
    fixed: Optional[RibbonStructure] = None,
    node_cap: Optional[int] = None,
) -> SearchResult:
    """Exact minimum of total neighborhood genus over all ribbon structures
    that extend the pinned partial structure ``fixed``, or a certified
    Exceeds(budget) verdict after exhausting the pruned tree.  A search
    past ``node_cap`` nodes raises `InconclusiveError`."""
    return _search(p, budget, fixed, node_cap, realize=False)


def is_realizable(
    p: CurvePattern,
    genus: int,
    fixed: Optional[RibbonStructure] = None,
    node_cap: Optional[int] = None,
) -> SearchResult:
    """Whether some ribbon structure extending ``fixed`` has total genus
    <= genus: the minimum-genus search stopped at the first structure
    within the budget."""
    return _search(p, genus, fixed, node_cap, realize=True)


def _search(
    p: CurvePattern,
    budget: Optional[int],
    fixed: Optional[RibbonStructure],
    node_cap: Optional[int],
    realize: bool,
) -> SearchResult:
    """The one search driver.  With ``realize`` a connected or pinned
    pattern is searched once, stopped at the budget; otherwise, and for a
    disconnected unpinned pattern, each component is searched for its exact
    minimum, stopped at its homology bound."""
    require_valid(p)
    t0 = time.perf_counter()
    if budget is None:
        budget = _default_budget(p)
    if budget < 0:
        raise InvalidInputError(
            f"{'genus' if realize else 'budget'} must be nonnegative"
        )
    if node_cap is not None and node_cap < 0:
        raise InvalidInputError("node cap must be nonnegative")

    total_nodes = 0

    def exceeds(note: str) -> SearchResult:
        return SearchResult(
            kind="exceeds",
            budget=budget,
            genus=None,
            witness=None,
            nodes_explored=total_nodes,
            exhausted=True,
            wall_time_s=time.perf_counter() - t0,
            note=note,
        )

    pin_genus = 0 if fixed is None else _pin_genus(p, fixed)

    lb = f2_genus_lower_bound(p)
    if budget < lb:
        return exceeds(f"budget below homology lower bound {lb}")
    # a completion's genus is at least its pin's, as in the pruning
    if pin_genus > budget:
        return exceeds(f"pinned structure alone has genus {pin_genus}")

    comps = list(p.components()) if fixed is None else [tuple(range(len(p.curves)))]
    # a disconnected pattern is realized with each component at its minimum
    realize = realize and len(comps) == 1

    subs = [
        subpattern(p, [p.curves[i] for i in comp]) if len(comps) > 1 else p
        for comp in comps
    ]
    lbs = [f2_genus_lower_bound(sub) for sub in subs]

    total_genus_val = 0
    witnesses: list[RibbonStructure] = []
    exhausted_all = True
    notes: list[str] = []
    for ci, sub in enumerate(subs):
        # budget left for this component: earlier components contribute their
        # exact minima, later ones at least their homology bounds
        sub_budget = budget - total_genus_val - sum(lbs[ci + 1 :])
        if sub_budget < lbs[ci]:
            return exceeds("component budget below homology lower bound")
        # the search stops once some structure has genus <= its stop genus:
        # the homology bound certifies a minimum without exhausting the
        # tree, and the budget stops at the first structure within it
        stop = sub_budget if realize else lbs[ci]
        eng = _Engine(sub, sub_budget, stop, fixed, node_cap, pin_genus)
        eng.run()
        total_nodes += eng.nodes
        exhausted = not eng._stopped()
        exhausted_all = exhausted_all and exhausted
        if not (exhausted or realize):
            notes.append("reached the homology lower bound")
        if eng.best_genus is None:
            return exceeds("exhausted without any structure within budget")
        total_genus_val += eng.best_genus
        witnesses.append(eng.best_witness)

    witness = _merge_witnesses(p, witnesses) if witnesses else None
    return SearchResult(
        kind="realizable" if realize else "exact",
        budget=budget,
        genus=total_genus_val,
        witness=witness,
        nodes_explored=total_nodes,
        exhausted=exhausted_all,
        wall_time_s=time.perf_counter() - t0,
        note="; ".join(sorted(set(notes))),
    )


def _pin_genus(p: CurvePattern, fixed: RibbonStructure) -> int:
    """The genus of a pinned structure, traced by `surface_of` on the
    sub-pattern it covers, which also checks that the structure is a
    complete, valid structure on it."""
    labels = {lab for lab, _ in fixed.visit_orders}
    missing = labels - set(p.curves)
    if missing:
        raise InvalidInputError(f"fixed structure names unknown curves {sorted(missing)}")
    sub = subpattern(p, [lab for lab in p.curves if lab in labels])
    if set(sub.curves) != labels:
        raise InvalidInputError("fixed structure isolates some of its own curves")
    try:
        return surface_of(sub, fixed).total_genus
    except InvalidInputError as exc:
        raise InvalidInputError(
            f"fixed structure invalid on its sub-pattern: {exc}"
        ) from None


def _merge_witnesses(
    p: CurvePattern, parts: list[RibbonStructure]
) -> RibbonStructure:
    orders: dict[Label, Sequence[Label]] = {}
    bits: dict[tuple[Label, Label], int] = {}
    for part in parts:
        for lab, order in part.visit_orders:
            orders[lab] = order
        for a, b, bitv in part.crossing_bits:
            bits[(a, b)] = bitv
    return make_structure(p, orders, bits)
