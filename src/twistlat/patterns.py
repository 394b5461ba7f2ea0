"""Curve intersection patterns: finitely many labeled curves with a
symmetric 0/1 geometric-intersection matrix.

Multiplicities above 1 are rejected (twists along curves meeting twice or
more generate free groups, so braid/commutation data never demands them)
and isolated curves are rejected (they carry no neighborhood constraint in
this model).  Patterns with entries in {0,1} are automatically in minimal
position.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence

from . import intlinalg as la
from .bitgraph import ArtinGraph, Vertex
from .errors import InvalidInputError

Label = str


@dataclass(frozen=True)
class CurvePattern:
    """Ordered curve labels plus the symmetric 0/1 intersection matrix."""

    curves: tuple[Label, ...]
    inter: la.IntMatrix

    def index(self, label: Label) -> int:
        try:
            return self.curves.index(label)
        except ValueError:
            raise InvalidInputError(f"no curve labeled {label!r}") from None

    def meets(self, a: Label, b: Label) -> bool:
        return self.inter[self.index(a)][self.index(b)] == 1

    def degree(self, label: Label) -> int:
        return sum(self.inter[self.index(label)])

    def crossings(self) -> tuple[tuple[int, int], ...]:
        """Intersecting index pairs (i < j), lexicographic."""
        n = len(self.curves)
        return tuple(
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if self.inter[i][j]
        )

    def neighbors(self, i: int) -> tuple[int, ...]:
        return tuple(j for j, x in enumerate(self.inter[i]) if x)

    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components as sorted tuples of curve indices."""
        n = len(self.curves)
        seen = [False] * n
        comps = []
        for s in range(n):
            if seen[s]:
                continue
            stack, comp = [s], []
            seen[s] = True
            while stack:
                i = stack.pop()
                comp.append(i)
                for j in self.neighbors(i):
                    if not seen[j]:
                        seen[j] = True
                        stack.append(j)
            comps.append(tuple(sorted(comp)))
        return tuple(comps)


def validate_pattern(p: CurvePattern) -> list[str]:
    """Structural problems, empty when the pattern is usable."""
    problems = []
    n = len(p.curves)
    if len(set(p.curves)) != n:
        problems.append("duplicate curve labels")
    if len(p.inter) != n or any(len(row) != n for row in p.inter):
        problems.append("intersection matrix shape does not match curves")
        return problems
    for i in range(n):
        if p.inter[i][i] != 0:
            problems.append(f"nonzero diagonal at {p.curves[i]!r}")
        for j in range(n):
            if p.inter[i][j] not in (0, 1):
                problems.append(
                    f"unsupported multiplicity {p.inter[i][j]} at "
                    f"({p.curves[i]!r},{p.curves[j]!r})"
                )
            if p.inter[i][j] != p.inter[j][i]:
                problems.append(
                    f"asymmetry at ({p.curves[i]!r},{p.curves[j]!r})"
                )
    for i in range(n):
        if n > 0 and all(x == 0 for x in p.inter[i]):
            problems.append(f"isolated curve {p.curves[i]!r}")
    return problems


def require_valid(p: CurvePattern) -> CurvePattern:
    problems = validate_pattern(p)
    if problems:
        raise InvalidInputError("; ".join(problems))
    return p


def require_list(value, what: str) -> list | tuple:
    """``value`` itself when it is a list or tuple: a string is not read
    character by character where a list is meant."""
    if not isinstance(value, (list, tuple)):
        raise InvalidInputError(f"{what} must be a list, not {type(value).__name__}")
    return value


def require_label(value) -> Label:
    """``value`` itself when it is a string: labels are sorted and hashed,
    and 2 < "x" or a list label would fail deep inside a check."""
    if not isinstance(value, str):
        raise InvalidInputError(f"curve label {value!r} is not a string")
    return value


def make_pattern(curves: Sequence[Label], meeting_pairs) -> CurvePattern:
    """Build a pattern from the list of intersecting label pairs."""
    curves = tuple(require_label(c) for c in require_list(curves, "curves"))
    idx = {c: i for i, c in enumerate(curves)}
    n = len(curves)
    m = [[0] * n for _ in range(n)]
    for pair in require_list(meeting_pairs, "intersections"):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise InvalidInputError(f"an intersection must be a pair, not {pair!r}")
        a, b = pair
        if a not in idx or b not in idx:
            raise InvalidInputError(f"unknown label in pair ({a!r},{b!r})")
        if a == b:
            raise InvalidInputError(f"self-intersection listed for {a!r}")
        m[idx[a]][idx[b]] = 1
        m[idx[b]][idx[a]] = 1
    return CurvePattern(curves=curves, inter=la.freeze(m))


def pattern_from_vertices(
    g: ArtinGraph, labels: Mapping[Label, Vertex]
) -> CurvePattern:
    """Pattern whose curves meet once exactly when their vertices are
    adjacent in the graph."""
    items = list(labels.items())
    verts = [tuple(v) for _, v in items]
    if len(set(verts)) != len(verts):
        raise InvalidInputError("duplicate vertices in label map")
    pairs = []
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if g.is_edge(verts[i], verts[j]):
                pairs.append((items[i][0], items[j][0]))
    return make_pattern([lab for lab, _ in items], pairs)


def f2_genus_lower_bound(p: CurvePattern) -> int:
    """ceil(r/2) where r is the rank of the intersection matrix over F_2;
    a lower bound for the genus of any surface carrying the pattern."""
    require_valid(p)
    r = la.rank_mod2(p.inter)
    return (r + 1) // 2


def subpattern(p: CurvePattern, labels: Sequence[Label]) -> CurvePattern:
    """Restriction to a subset of curves; curves isolated by the
    restriction are dropped (they impose no neighborhood constraint)."""
    keep = [p.index(lab) for lab in labels]
    rows = [[p.inter[i][j] for j in keep] for i in keep]
    kept_labels = [p.curves[i] for i in keep]
    alive = [t for t in range(len(keep)) if any(rows[t])]
    return CurvePattern(
        curves=tuple(kept_labels[t] for t in alive),
        inter=la.freeze([[rows[a][b] for b in alive] for a in alive]),
    )


def relabel(p: CurvePattern, mapping: Mapping[Label, Label]) -> CurvePattern:
    new = [mapping.get(c, c) for c in p.curves]
    if len(set(new)) != len(new):
        raise InvalidInputError("relabeling collapses labels")
    return CurvePattern(curves=tuple(new), inter=p.inter)


def pattern_to_json_dict(p: CurvePattern) -> dict:
    return {
        "curves": list(p.curves),
        "intersections": [
            [p.curves[i], p.curves[j]] for i, j in p.crossings()
        ],
    }


def reject_repeated_keys(pairs: list[tuple[str, object]]) -> dict:
    """`object_pairs_hook` for `json.loads`: a key given twice in one
    object is an error, not a silent overwrite by the last value."""
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"repeated key {key!r}")
        out[key] = value
    return out


def pattern_from_json(payload: str | dict) -> CurvePattern:
    try:
        if isinstance(payload, str):
            payload = json.loads(payload, object_pairs_hook=reject_repeated_keys)
        return make_pattern(payload["curves"], payload["intersections"])
    except InvalidInputError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed pattern JSON: {exc}") from None
