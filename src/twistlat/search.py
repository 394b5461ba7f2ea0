"""Exact minimal-genus search over ribbon structures.

Curves are inserted one at a time (configurable order).  Placing a curve
means choosing, crossing by crossing, which partner comes next in its
cyclic order, which arc of the partner the crossing subdivides, and the
crossing's orientation bit.  After every placement the partial ribbon
graph's neighborhood genus is recomputed; since a sub-ribbon-graph's
neighborhood embeds in any completion's neighborhood, the partial genus is
a valid lower bound and branches exceeding the budget (or the best leaf so
far) are pruned.  "Exceeds" verdicts are issued only after the pruned tree
is exhausted (or when the budget is already below the homology bound);
exact minima are certified early once some structure reaches the homology
bound, since nothing can lie below it.

The internal state is orientation-free: rotations live on slot pairs
created in insertion order, so the per-curve orientation redundancy of the
external (visit order, bits) encoding never enters the tree.  On top of
that, each cyclic order is anchored at the lowest-labeled partner, a newly
inserted curve's cyclic order is enumerated up to reversal, and one bit per
pattern component is pinned to quotient out the mirror image.

Every run is decomposed into top-level branches (decision-path prefixes
collected at the shallowest depth holding ``_BRANCH_TARGET`` of them, a
depth that depends on the input alone).  Branches are searched
independently and never share bounds, so verdicts, node counts and
witnesses are identical for every ``threads`` value; branches are also the
unit of checkpointing for ``cache_path``/``resume``.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InconclusiveError, InvalidInputError
from .patterns import (
    CurvePattern,
    Label,
    f2_genus_lower_bound,
    pattern_from_json,  # noqa: F401  perfbench/spans.py wraps it by __dict__ lookup
    pattern_to_json,
    require_valid,
    subpattern,
)
from .ribbon import (
    RibbonStructure,
    make_structure,
    structure_from_json,
    structure_to_json_dict,
    surface_of,
    validate_structure,
)

ENGINE_VERSION = 1
CACHE_VERSION = 1
_MAX_COLLECT_DEPTH = 18
# branches wanted per run; a constant, so the split is the same at every
# thread count
_BRANCH_TARGET = 16


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the branch-and-bound search."""

    order: str | tuple[Label, ...] = "given"  # "given", "degree", or explicit
    threads: int = 1
    node_cap: Optional[int] = None
    cache_path: Optional[str] = None
    resume: bool = False
    fixed: Optional[RibbonStructure] = None  # pinned partial structure


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
    """Insertion search on one pattern.

    Modes, selected by `run`:
      * search: explore the subtree under a decision-path `prefix`
        (replaying the prefix without counting nodes);
      * collect: explore normally down to `collect_depth` decision points,
        record the decision paths alive at that depth, do not descend.
    """

    def __init__(
        self,
        pattern: CurvePattern,
        order: Sequence[Label],
        budget: int,
        fixed: Optional[RibbonStructure] = None,
        first_hit: bool = False,
        node_cap: Optional[int] = None,
        stop_genus: Optional[int] = None,
    ):
        self.p = pattern
        self.budget = budget
        self.first_hit = first_hit
        self.node_cap = node_cap
        self.stop_genus = stop_genus  # a proven lower bound: stop on reaching it
        self.order = [pattern.index(lab) for lab in order]
        if sorted(self.order) != list(range(len(pattern.curves))):
            raise InvalidInputError("insertion order must cover every curve once")

        self.fixed_labels: set[Label] = set()
        if fixed is not None:
            self.fixed_labels = {lab for lab, _ in fixed.visit_orders}
            missing = self.fixed_labels - set(pattern.curves)
            if missing:
                raise InvalidInputError(f"fixed structure names unknown curves {missing}")
            fixed_first = [
                i for i in self.order if pattern.curves[i] in self.fixed_labels
            ]
            rest = [i for i in self.order if pattern.curves[i] not in self.fixed_labels]
            self.order = fixed_first + rest
        # reflection pinning is a symmetry quotient only without a pinned prefix
        self.pin_reflection = fixed is None
        self.anchor_pairs: set[tuple[int, int]] = set()
        if self.pin_reflection:
            for comp in pattern.components():
                pairs = [
                    (i, j) for i in comp for j in comp if i < j and pattern.inter[i][j]
                ]
                if pairs:
                    self.anchor_pairs.add(min(pairs))

        # dynamic state
        self.cross: list[tuple[int, int]] = []  # (curve_lo, curve_hi)
        self.bit: list[int] = []
        self.link: list[int] = []  # dart -> dart | -1
        self.arcs: dict[int, list[tuple[int, int]]] = {
            i: [] for i in range(len(pattern.curves))
        }
        self.journal: list[tuple] = []
        self.nodes = 0

        # results
        self.best_genus: Optional[int] = None
        self.best_witness: Optional[RibbonStructure] = None
        self.hit: Optional[tuple[int, RibbonStructure]] = None

        # mode
        self._prefix: tuple[int, ...] = ()
        self._collect_depth: Optional[int] = None
        self._collected: list[tuple[int, ...]] = []
        self._path: list[int] = []

        if fixed is not None:
            self._load_fixed(fixed)

    # -- low-level journaled mutations ---------------------------------------

    def _dart(self, x: int, side: int, slot: int) -> int:
        return 4 * x + 2 * side + slot

    def _side_of(self, x: int, curve: int) -> int:
        lo, hi = self.cross[x]
        if curve == lo:
            return 0
        if curve == hi:
            return 1
        raise AssertionError("curve not at crossing")

    def _link(self, d1: int, d2: int) -> None:
        self.link[d1] = d2
        self.link[d2] = d1
        self.journal.append(("unlink", d1, d2))

    def _unlink(self, d1: int, d2: int) -> None:
        self.link[d1] = -1
        self.link[d2] = -1
        self.journal.append(("link", d1, d2))

    def _arc_insert(self, curve: int, pos: int, arc: tuple[int, int]) -> None:
        self.arcs[curve].insert(pos, arc)
        self.journal.append(("arc_pop", curve, pos))

    def _arc_remove(self, curve: int, pos: int) -> tuple[int, int]:
        arc = self.arcs[curve].pop(pos)
        self.journal.append(("arc_put", curve, pos, arc))
        return arc

    def _new_crossing(self, ci: int, cj: int, bitv: int) -> int:
        x = len(self.cross)
        self.cross.append((min(ci, cj), max(ci, cj)))
        self.bit.append(bitv)
        self.link.extend((-1, -1, -1, -1))
        self.journal.append(("pop_crossing",))
        return x

    def _mark(self) -> int:
        return len(self.journal)

    def _rewind(self, token: int) -> None:
        link = self.link
        while len(self.journal) > token:
            op = self.journal.pop()
            tag = op[0]
            if tag == "link":
                _, d1, d2 = op
                link[d1] = d2
                link[d2] = d1
            elif tag == "unlink":
                _, d1, d2 = op
                link[d1] = -1
                link[d2] = -1
            elif tag == "arc_pop":
                self.arcs[op[1]].pop(op[2])
            elif tag == "arc_put":
                self.arcs[op[1]].insert(op[2], op[3])
            elif tag == "pop_crossing":
                self.cross.pop()
                self.bit.pop()
                del link[-4:]
            else:
                raise AssertionError(f"unknown journal op {tag}")

    # -- placements ----------------------------------------------------------

    def _place_crossing(
        self,
        c: int,
        partner: int,
        gap: int,
        bitv: int,
        strand: list[int],
        is_first: bool,
    ) -> None:
        x = self._new_crossing(c, partner, bitv)
        side_c = self._side_of(x, c)
        side_p = 1 - side_c
        d0 = self._dart(x, side_p, 0)
        d1 = self._dart(x, side_p, 1)
        p_arcs = self.arcs[partner]
        if p_arcs:
            d_a, d_b = self._arc_remove(partner, gap)
            self._unlink(d_a, d_b)
            self._link(d_a, d0)
            self._link(d1, d_b)
            self._arc_insert(partner, gap, (d_a, d0))
            self._arc_insert(partner, gap + 1, (d1, d_b))
        else:
            # partner's first crossing: its closed curve becomes a loop arc
            self._link(d1, d0)
            self._arc_insert(partner, 0, (d1, d0))
        if not is_first:
            prev = strand[-1]
            d_out = self._dart(prev, self._side_of(prev, c), 1)
            d_in = self._dart(x, side_c, 0)
            self._link(d_out, d_in)
            self._arc_insert(c, len(self.arcs[c]), (d_out, d_in))
        strand.append(x)

    def _close_strand(self, c: int, strand: list[int]) -> None:
        first, last = strand[0], strand[-1]
        d_out = self._dart(last, self._side_of(last, c), 1)
        d_in = self._dart(first, self._side_of(first, c), 0)
        self._link(d_out, d_in)
        self._arc_insert(c, len(self.arcs[c]), (d_out, d_in))

    # -- tracing ---------------------------------------------------------------

    def _sigma(self, d: int) -> int:
        x, off = divmod(d, 4)
        b = self.bit[x]
        base = 4 * x
        cyc = (base, base + 2 + b, base + 1, base + 3 - b)
        pos = 0 if off == 0 else (2 if off == 1 else (1 if off == 2 + b else 3))
        link = self.link
        for step in (1, 2, 3):
            cand = cyc[(pos + step) & 3]
            if link[cand] != -1:
                return cand
        return d

    def total_genus(self) -> int:
        """Sum of component genera of the current partial ribbon graph:
        (2*components - faces - V + E) / 2."""
        nv = len(self.cross)
        if nv == 0:
            return 0
        link = self.link
        linked = [d for d in range(4 * nv) if link[d] != -1]
        ne = len(linked) // 2
        sigma = self._sigma
        seen = set()
        faces = 0
        for d0 in linked:
            if d0 in seen:
                continue
            faces += 1
            d = d0
            while True:
                seen.add(d)
                d = sigma(link[d])
                if d == d0:
                    break
        parent = list(range(nv))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for d in linked:
            ra, rb = find(d // 4), find(link[d] // 4)
            if ra != rb:
                parent[ra] = rb
        ncomp = len({find(t) for t in range(nv)})
        g2 = 2 * ncomp - faces - nv + ne
        if g2 % 2 or g2 < 0:
            raise AssertionError("inconsistent trace")
        return g2 // 2

    # -- external structure extraction / loading -------------------------------

    def extract_structure(self) -> RibbonStructure:
        """Convert the complete internal state to the external encoding,
        choosing each curve's direction canonically."""
        p = self.p
        crossings_of: dict[int, list[int]] = {i: [] for i in range(len(p.curves))}
        for x, (lo, hi) in enumerate(self.cross):
            crossings_of[lo].append(x)
            crossings_of[hi].append(x)
        orders: dict[Label, list[Label]] = {}
        in_slot: dict[tuple[int, int], int] = {}

        for ci, lab in enumerate(p.curves):
            xs = crossings_of[ci]
            if not xs:
                orders[lab] = []
                continue

            def partner_label(x: int, ci=ci) -> Label:
                lo, hi = self.cross[x]
                return p.curves[hi if lo == ci else lo]

            start = min(xs, key=partner_label)
            walks = []
            # slot 1 first: on ties this keeps the direction a loaded
            # structure came with, making extraction idempotent
            for first_slot in (1, 0):
                seq = [start]
                arrival = {}
                x, out_slot = start, first_slot
                while True:
                    d = self.link[self._dart(x, self._side_of(x, ci), out_slot)]
                    if d == -1:
                        raise AssertionError("open strand in a finished structure")
                    nx, ns = d // 4, d % 2
                    arrival[nx] = ns
                    if nx == start:
                        break
                    seq.append(nx)
                    x, out_slot = nx, 1 - ns
                walks.append(([partner_label(x) for x in seq], seq, arrival))
            walks.sort(key=lambda w: w[0])
            labels_seq, seq, arrival = walks[0]
            orders[lab] = labels_seq
            for x in seq:
                in_slot[(x, ci)] = arrival[x]

        bits = {}
        for x, (lo, hi) in enumerate(self.cross):
            s_in_lo = in_slot[(x, lo)]
            s_in_hi = in_slot[(x, hi)]
            b = self.bit[x]
            succ_of_lo_in = b if s_in_lo == 0 else 1 - b
            key = tuple(sorted((p.curves[lo], p.curves[hi])))
            bits[key] = 0 if succ_of_lo_in == s_in_hi else 1
        return make_structure(p, orders, bits)

    def _load_fixed(self, fixed: RibbonStructure) -> None:
        """Install a complete structure on the fixed sub-pattern."""
        sub = subpattern(self.p, sorted(self.fixed_labels))
        if set(sub.curves) != self.fixed_labels:
            raise InvalidInputError(
                "fixed structure isolates some of its own curves"
            )
        problems = validate_structure(sub, fixed)
        if problems:
            raise InvalidInputError(
                "fixed structure invalid on its sub-pattern: " + "; ".join(problems)
            )
        order_map = dict(fixed.visit_orders)
        bit_map = fixed.bits()
        xid: dict[tuple[int, int], int] = {}
        for i, j in sub.crossings():
            gi = self.p.index(sub.curves[i])
            gj = self.p.index(sub.curves[j])
            lo, hi = min(gi, gj), max(gi, gj)
            key = tuple(sorted((sub.curves[i], sub.curves[j])))
            x = self._new_crossing(lo, hi, bit_map[key])
            xid[(lo, hi)] = x
        for lab in sub.curves:
            ci = self.p.index(lab)
            seq = order_map[lab]
            ids = []
            for partner in seq:
                pj = self.p.index(partner)
                ids.append(xid[(min(ci, pj), max(ci, pj))])
            m = len(ids)
            for t in range(m):
                x, nx = ids[t], ids[(t + 1) % m]
                d_out = self._dart(x, self._side_of(x, ci), 1)
                d_in = self._dart(nx, self._side_of(nx, ci), 0)
                self._link(d_out, d_in)
                self._arc_insert(ci, len(self.arcs[ci]), (d_out, d_in))
        if self.total_genus() > self.budget:
            raise InvalidInputError("fixed structure already exceeds the genus budget")

    # -- search -----------------------------------------------------------------

    def run(
        self,
        prefix: Sequence[int] = (),
        collect_depth: Optional[int] = None,
    ) -> list[tuple[int, ...]]:
        self._prefix = tuple(prefix)
        self._collect_depth = collect_depth
        self._collected = []
        self._path = []
        self._dfs_curve(0)
        return self._collected

    def _cutoff(self) -> int:
        if self.first_hit or self.best_genus is None:
            return self.budget
        return min(self.budget, self.best_genus - 1)

    def _stopped(self) -> bool:
        if self.first_hit:
            return self.hit is not None
        return (
            self.stop_genus is not None
            and self.best_genus is not None
            and self.best_genus <= self.stop_genus
        )

    def _check_cap(self) -> None:
        if self.node_cap is not None and self.nodes > self.node_cap:
            raise InconclusiveError(
                f"node cap {self.node_cap} exceeded before exhaustion",
                nodes_explored=self.nodes,
            )

    def _decision(self, options: int):
        """Yield option indices for the current decision point, handling
        prefix replay and branch collection.  Yields (index, counted)."""
        depth = len(self._path)
        if depth < len(self._prefix):
            oi = self._prefix[depth]
            if oi < options:
                yield oi, False
            return
        if self._collect_depth is not None and depth >= self._collect_depth:
            self._collected.append(tuple(self._path))
            return
        for oi in range(options):
            yield oi, True

    def _dfs_curve(self, k: int) -> None:
        if self._stopped():
            return
        if k == len(self.order):
            self._leaf()
            return
        c = self.order[k]
        if self.p.curves[c] in self.fixed_labels:
            self._dfs_curve(k + 1)
            return
        inserted = set(self.order[:k]) | {
            self.p.index(lab) for lab in self.fixed_labels
        }
        partners = sorted(j for j in self.p.neighbors(c) if j in inserted)
        if not partners:
            self._dfs_curve(k + 1)
            return
        filter_ok = len(partners) >= 3 and not any(
            (min(c, q), max(c, q)) in self.anchor_pairs for q in self.p.neighbors(c)
        )
        self._dfs_place(c, k, partners[0], partners[1:], [], None, filter_ok)

    def _bit_choices(self, c: int, q: int) -> tuple[int, ...]:
        if self.pin_reflection and (min(c, q), max(c, q)) in self.anchor_pairs:
            return (0,)
        return (0, 1)

    def _dfs_place(self, c, k, forced_next, remaining, strand, q2, filter_ok):
        if self._stopped():
            return
        if forced_next is None and not remaining:
            # closure of the strand: one forced option
            for _oi, counted in self._decision(1):
                self._path.append(0)
                tok = self._mark()
                self._close_strand(c, strand)
                if counted:
                    self.nodes += 1
                    self._check_cap()
                if self.total_genus() <= self._cutoff():
                    self._dfs_curve(k + 1)
                self._rewind(tok)
                self._path.pop()
            return

        candidates = [forced_next] if forced_next is not None else list(remaining)
        options: list[tuple[int, int, int]] = []
        for q in candidates:
            if filter_ok and len(remaining) == 1 and q2 is not None and q < q2:
                continue  # this cyclic order is the reversal of one already done
            gaps = max(1, len(self.arcs[q]))
            for gap in range(gaps):
                for bitv in self._bit_choices(c, q):
                    options.append((q, gap, bitv))

        for oi, counted in self._decision(len(options)):
            q, gap, bitv = options[oi]
            self._path.append(oi)
            tok = self._mark()
            self._place_crossing(c, q, gap, bitv, strand, is_first=not strand)
            if counted:
                self.nodes += 1
                self._check_cap()
            if self.total_genus() <= self._cutoff():
                nxt_remaining = (
                    remaining
                    if forced_next is not None
                    else [r for r in remaining if r != q]
                )
                self._dfs_place(
                    c,
                    k,
                    None,
                    nxt_remaining,
                    strand,
                    q if (forced_next is None and q2 is None) else q2,
                    filter_ok,
                )
            self._rewind(tok)
            strand.pop()
            self._path.pop()
            if self._stopped():
                return

    def _leaf(self) -> None:
        g = self.total_genus()
        if g > self.budget:
            return
        witness = self.extract_structure()
        traced = surface_of(self.p, witness)
        if traced.total_genus != g:
            raise AssertionError("internal/external trace mismatch")
        if self.first_hit:
            if self.hit is None:
                self.hit = (g, witness)
            return
        if self.best_genus is None or g < self.best_genus:
            self.best_genus = g
            self.best_witness = witness


# ---------------------------------------------------------------------------
# branch orchestration


def _resolve_order(p: CurvePattern, order) -> list[Label]:
    if order == "given":
        return list(p.curves)
    if order == "degree":
        return sorted(p.curves, key=lambda lab: (-p.degree(lab), p.index(lab)))
    # explicit order; may name a superset (component runs receive the full
    # pattern's order and keep only their own curves)
    own = set(p.curves)
    labs = [lab for lab in order if lab in own]
    if sorted(labs) != sorted(p.curves):
        raise InvalidInputError("explicit order must cover every curve exactly once")
    return labs


def _branch_worker(payload: tuple[dict, tuple[int, ...]]) -> dict:
    spec, path = payload
    eng = _Engine(**spec)
    eng.run(prefix=path)
    out = {
        "path": list(path),
        "nodes": eng.nodes,
        "best_genus": eng.best_genus,
        "best_witness": (
            structure_to_json_dict(eng.best_witness) if eng.best_witness else None
        ),
        "hit_genus": eng.hit[0] if eng.hit else None,
        "hit_witness": structure_to_json_dict(eng.hit[1]) if eng.hit else None,
    }
    return out


class _Cache:
    """Versioned JSON checkpoint of completed branch results."""

    def __init__(self, path: Optional[str], key: str, resume: bool):
        self.path = path
        self.key = key
        self.results: dict[str, dict] = {}
        if path and resume and os.path.exists(path):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    data = json.load(fh)
                if data.get("version") == CACHE_VERSION and data.get("key") == key:
                    self.results = data.get("branches", {})
            except (OSError, json.JSONDecodeError):
                self.results = {}

    def get(self, path: tuple[int, ...]) -> Optional[dict]:
        return self.results.get(repr(list(path)))

    def put(self, path: tuple[int, ...], result: dict) -> None:
        self.results[repr(list(path))] = result
        self._flush()

    def _flush(self) -> None:
        if not self.path:
            return
        payload = {
            "version": CACHE_VERSION,
            "key": self.key,
            "branches": self.results,
        }
        d = os.path.dirname(os.path.abspath(self.path)) or "."
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".twistlat-cache-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True)
            os.replace(tmp, self.path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


def _run_pattern(
    p: CurvePattern,
    budget: int,
    config: SearchConfig,
    first_hit: bool,
    stop_genus: Optional[int] = None,
) -> dict:
    """Branch-decomposed search of one pattern; deterministic across
    thread counts.  Returns aggregate dict.

    ``stop_genus`` is a *proven* lower bound: once some structure reaches
    it the minimum is certified without exhausting the tree.
    """
    order_labels = _resolve_order(p, config.order)
    # the engine lays out a pinned curve's arcs from the first entry of its
    # cyclic order, so pin the canonical rotation
    fixed = config.fixed.canonical() if config.fixed is not None else None
    spec = dict(
        pattern=p,
        order=order_labels,
        budget=budget,
        fixed=fixed,
        first_hit=first_hit,
        stop_genus=stop_genus,
    )

    def reached_stop(genus: Optional[int]) -> bool:
        return (
            not first_hit
            and stop_genus is not None
            and genus is not None
            and genus <= stop_genus
        )

    # choose the branch depth: smallest depth holding >= _BRANCH_TARGET
    # branches; the collection at that depth is the one whose work counts
    for depth in range(1, _MAX_COLLECT_DEPTH + 1):
        collector = _Engine(**spec)
        branches = collector.run(collect_depth=depth)
        if len(branches) >= _BRANCH_TARGET or not branches:
            break

    cap = config.node_cap
    if cap is not None and collector.nodes > cap:
        # the count at which a capped engine raises: the first node past the cap
        raise InconclusiveError(
            f"node cap {cap} exceeded before exhaustion", nodes_explored=cap + 1
        )
    nodes = collector.nodes

    key_payload = {
        "engine": ENGINE_VERSION,
        "pattern": pattern_to_json(p),
        "budget": budget,
        "order": list(order_labels),
        "first_hit": first_hit,
        "fixed": structure_to_json_dict(fixed) if fixed else None,
        "depth": depth,
        "stop": stop_genus,
    }
    key = hashlib.sha256(
        json.dumps(key_payload, sort_keys=True).encode()
    ).hexdigest()
    cache = _Cache(config.cache_path, key, config.resume)

    per_branch_cap = None
    if cap is not None:
        per_branch_cap = max(1, cap // max(1, len(branches)))
    spec["node_cap"] = per_branch_cap

    best_genus, best_witness = collector.best_genus, collector.best_witness
    hit = collector.hit
    inconclusive: Optional[InconclusiveError] = None
    stopped_early = reached_stop(best_genus) or (first_hit and hit is not None)

    pending = [path for path in branches if cache.get(path) is None]
    results: dict[tuple[int, ...], dict] = {
        path: cache.get(path) for path in branches if cache.get(path) is not None
    }

    def consume(path: tuple[int, ...], res: dict) -> None:
        results[path] = res
        cache.put(path, res)

    def branch_satisfies_stop(res: dict) -> bool:
        if first_hit:
            return res["hit_genus"] is not None
        return reached_stop(res["best_genus"])

    # Walk branches strictly in order, taking cached results where present
    # and fresh ones otherwise, so early stops hit the same point whether or
    # not a run was resumed and whatever the thread count.
    if not stopped_early:
        pool = None
        if config.threads > 1 and pending:
            pool = multiprocessing.Pool(config.threads)
            fresh = pool.imap(_branch_worker, [(spec, path) for path in pending])
        else:
            fresh = (_branch_worker((spec, path)) for path in pending)
        try:
            for path in branches:
                res = results.get(path)
                if res is None:
                    try:
                        res = next(fresh)
                    except InconclusiveError as exc:
                        inconclusive = exc
                        break
                    consume(path, res)
                if branch_satisfies_stop(res):
                    stopped_early = True
                    break
        finally:
            if pool is not None:
                pool.terminate()
                pool.join()

    # deterministic aggregation in branch order
    for path in branches:
        res = results.get(path)
        if res is None:
            if stopped_early or inconclusive is not None or first_hit:
                continue  # remaining branches legitimately unexplored
            raise AssertionError("missing branch result in exhaustive mode")
        nodes += res["nodes"]
        if res["best_genus"] is not None and (
            best_genus is None or res["best_genus"] < best_genus
        ):
            best_genus = res["best_genus"]
            best_witness = structure_from_json(res["best_witness"])
        if first_hit and hit is None and res["hit_genus"] is not None:
            hit = (res["hit_genus"], structure_from_json(res["hit_witness"]))

    if inconclusive is not None:
        raise InconclusiveError(str(inconclusive), nodes_explored=nodes)

    if first_hit:
        exhausted = hit is None
    else:
        exhausted = not stopped_early
    return {
        "best_genus": best_genus if not first_hit else None,
        "best_witness": best_witness if not first_hit else None,
        "hit": hit,
        "nodes": nodes,
        "exhausted": exhausted,
        "stopped_at_bound": (not first_hit) and stopped_early,
    }


# ---------------------------------------------------------------------------
# public API


def _default_budget(p: CurvePattern) -> int:
    # chi = -V, so any neighborhood has genus <= (V + 1) // 2 + 1
    v = len(p.crossings())
    return (v + 2) // 2 + 1


def min_genus(
    p: CurvePattern,
    budget: Optional[int] = None,
    config: SearchConfig = SearchConfig(),
) -> SearchResult:
    """Exact minimum of total neighborhood genus over all ribbon structures,
    or a certified Exceeds(budget) verdict after exhausting the pruned tree."""
    require_valid(p)
    t0 = time.time()
    if budget is None:
        budget = _default_budget(p)
    if budget < 0:
        raise InvalidInputError("budget must be nonnegative")

    lb = f2_genus_lower_bound(p)
    if budget < lb:
        return SearchResult(
            kind="exceeds",
            budget=budget,
            genus=None,
            witness=None,
            nodes_explored=0,
            exhausted=True,
            wall_time_s=time.time() - t0,
            note=f"budget below homology lower bound {lb}",
        )

    if config.fixed is not None:
        comps = [tuple(range(len(p.curves)))]
    else:
        comps = list(p.components())

    subs = [
        subpattern(p, [p.curves[i] for i in comp]) if len(comps) > 1 else p
        for comp in comps
    ]
    lbs = [f2_genus_lower_bound(sub) for sub in subs]

    total_nodes = 0
    total_genus_val = 0
    witnesses: list[RibbonStructure] = []
    exhausted_all = True
    notes: list[str] = []
    for ci, sub in enumerate(subs):
        # budget left for this component: earlier components contribute their
        # exact minima, later ones at least their homology bounds
        sub_budget = budget - total_genus_val - sum(lbs[ci + 1 :])
        if sub_budget < lbs[ci]:
            return SearchResult(
                kind="exceeds",
                budget=budget,
                genus=None,
                witness=None,
                nodes_explored=total_nodes,
                exhausted=True,
                wall_time_s=time.time() - t0,
                note="component budget below homology lower bound",
            )
        agg = _run_pattern(
            sub, sub_budget, config, first_hit=False, stop_genus=lbs[ci]
        )
        total_nodes += agg["nodes"]
        exhausted_all = exhausted_all and agg["exhausted"]
        if agg.get("stopped_at_bound"):
            notes.append("reached the homology lower bound")
        if agg["best_genus"] is None:
            return SearchResult(
                kind="exceeds",
                budget=budget,
                genus=None,
                witness=None,
                nodes_explored=total_nodes,
                exhausted=True,
                wall_time_s=time.time() - t0,
                note="exhausted without any structure within budget",
            )
        total_genus_val += agg["best_genus"]
        witnesses.append(agg["best_witness"])

    if total_genus_val > budget:
        return SearchResult(
            kind="exceeds",
            budget=budget,
            genus=None,
            witness=None,
            nodes_explored=total_nodes,
            exhausted=True,
            wall_time_s=time.time() - t0,
            note="component minima sum beyond budget",
        )

    witness = _merge_witnesses(p, witnesses) if witnesses else None
    return SearchResult(
        kind="exact",
        budget=budget,
        genus=total_genus_val,
        witness=witness,
        nodes_explored=total_nodes,
        exhausted=exhausted_all,
        wall_time_s=time.time() - t0,
        note="; ".join(sorted(set(notes))),
    )


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


def is_realizable(
    p: CurvePattern,
    genus: int,
    config: SearchConfig = SearchConfig(),
) -> SearchResult:
    """Whether some ribbon structure has total genus <= genus; stops at the
    first witness found."""
    require_valid(p)
    if genus < 0:
        raise InvalidInputError("genus must be nonnegative")
    if genus < f2_genus_lower_bound(p) or (
        config.fixed is None and len(p.components()) > 1
    ):
        # below the bound nothing runs; a disconnected pattern is realized
        # with each component at its exact minimum
        return min_genus(p, genus, config)
    t0 = time.time()
    agg = _run_pattern(p, genus, config, first_hit=True)
    hit = agg["hit"]
    return SearchResult(
        kind="realizable" if hit else "exceeds",
        budget=genus,
        genus=hit[0] if hit else None,
        witness=hit[1] if hit else None,
        nodes_explored=agg["nodes"],
        exhausted=agg["exhausted"],
        wall_time_s=time.time() - t0,
        note="" if hit else "exhausted without any structure within budget",
    )
