"""Comparability graph on bit-tuples and its chain combinatorics.

Vertices are the 2^k tuples in {0,1}^k, listed lexicographically.  Two
distinct vertices are joined by an edge when they are comparable in the
coordinatewise partial order; equivalently, when no pair of coordinates
takes the opposite values (0,1) and (1,0).  The all-zeros and all-ones
tuples are adjacent to everything else ("extremal" vertices).

Generators of the associated Artin group braid along edges and commute
along non-edges, so induced chains give braid subgroups and induced cycles
give affine-braid subgroups; the helpers here certify those subgraph shapes
exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InvalidInputError

Vertex = tuple[int, ...]

MAX_K = 8

#: Index set used when hunting for a commuting partner along the canonical
#: seven-vertex chain (1-based positions; position 2 is excluded).
DEFAULT_WITNESS_POSITIONS = (1, 3, 4, 5, 6, 7)

#: The canonical induced 7-chain giving a braid group on 8 strings.
BR8_CHAIN: tuple[Vertex, ...] = (
    (0, 0, 0, 1),
    (0, 1, 0, 1),
    (0, 1, 0, 0),
    (0, 1, 1, 0),
    (0, 0, 1, 0),
    (1, 0, 1, 0),
    (1, 0, 0, 0),
)

#: The chain closed up into an induced 8-cycle (affine braid group).
AFFINE_CYCLE: tuple[Vertex, ...] = BR8_CHAIN + ((1, 0, 0, 1),)


def vertices(k: int) -> tuple[Vertex, ...]:
    """{0,1}^k in lexicographic order, the vertex order used throughout."""
    if not isinstance(k, int) or k < 1 or k > MAX_K:
        raise InvalidInputError(f"k must be an integer in [1, {MAX_K}], got {k!r}")
    return tuple(itertools.product((0, 1), repeat=k))


def parse_vertex(s: str) -> Vertex:
    """Parse a bit-string like "0101" into a vertex tuple."""
    if not s or any(ch not in "01" for ch in s):
        raise InvalidInputError(f"not a bit-string: {s!r}")
    return tuple(int(ch) for ch in s)


def vertex_str(v: Vertex) -> str:
    return "".join(str(b) for b in v)


def comparable(u: Vertex, v: Vertex) -> bool:
    """Coordinatewise comparability in the product order."""
    return all(a <= b for a, b in zip(u, v)) or all(a >= b for a, b in zip(u, v))


def no_opposite_pair(u: Vertex, v: Vertex) -> bool:
    """Literal sign rule: (u_m - v_m)(u_n - v_n) >= 0 for all coordinate pairs."""
    diffs = [a - b for a, b in zip(u, v)]
    for dm, dn in itertools.combinations(diffs, 2):
        if dm * dn < 0:
            return False
    return True


@dataclass(frozen=True)
class ChainReport:
    """Outcome of checking that a vertex sequence spans an induced path."""

    is_chain: bool
    violations: tuple[tuple[tuple[int, int], str], ...]


class ArtinGraph:
    """The comparability graph on {0,1}^k.

    Immutable after construction; vertices are ordered lexicographically and
    edges are stored as a frozenset of index pairs.
    """

    def __init__(self, k: int):
        self.vertices: tuple[Vertex, ...] = vertices(k)
        self.k = k
        self.index = {v: i for i, v in enumerate(self.vertices)}
        n = len(self.vertices)
        edges = []
        adj = [set() for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if comparable(self.vertices[i], self.vertices[j]):
                    edges.append((i, j))
                    adj[i].add(j)
                    adj[j].add(i)
        self.edges: tuple[tuple[int, int], ...] = tuple(edges)
        self._adj = tuple(frozenset(s) for s in adj)

    def __repr__(self) -> str:
        return f"ArtinGraph(k={self.k}, vertices={len(self.vertices)}, edges={len(self.edges)})"

    def vertex_index(self, v: Vertex) -> int:
        """Position of v in `vertices`; InvalidInputError if v is not one."""
        i = self.index.get(tuple(v))
        if i is None:
            raise InvalidInputError(f"not a vertex of the k={self.k} graph: {v!r}")
        return i

    def is_edge(self, u: Vertex, v: Vertex) -> bool:
        """Adjacency test: distinct and comparable."""
        i, j = self.vertex_index(u), self.vertex_index(v)
        return i != j and j in self._adj[i]

    def neighbors(self, v: Vertex) -> tuple[Vertex, ...]:
        i = self.vertex_index(v)
        return tuple(self.vertices[j] for j in sorted(self._adj[i]))

    def degree(self, v: Vertex) -> int:
        return len(self._adj[self.vertex_index(v)])

    def extremal_vertices(self) -> tuple[Vertex, ...]:
        """Vertices adjacent to every other vertex."""
        full = len(self.vertices) - 1
        return tuple(v for v in self.vertices if len(self._adj[self.index[v]]) == full)

    def is_extremal(self, v: Vertex) -> bool:
        return len(self._adj[self.vertex_index(v)]) == len(self.vertices) - 1

    # -- chains, cycles, paths ------------------------------------------------

    def verify_chain(self, seq: Sequence[Vertex]) -> ChainReport:
        """Check that consecutive vertices are adjacent, non-consecutive ones
        are not, and no vertex repeats.  Violations are reported, not raised."""
        idx = [self.vertex_index(v) for v in seq]
        violations: list[tuple[tuple[int, int], str]] = []
        seen: dict[int, int] = {}
        for pos, i in enumerate(idx):
            if i in seen:
                violations.append(((seen[i], pos), "repeat"))
            else:
                seen[i] = pos
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                adjacent = idx[b] in self._adj[idx[a]]
                if b == a + 1 and not adjacent:
                    violations.append(((a, b), "missing-edge"))
                elif b > a + 1 and adjacent:
                    violations.append(((a, b), "chord"))
        return ChainReport(
            is_chain=not violations,
            violations=tuple(violations),
        )

    def verify_induced_cycle(self, seq: Sequence[Vertex]) -> bool:
        """True iff the sequence is an induced cycle: cyclically consecutive
        pairs are edges and every other pair is a non-edge."""
        idx = [self.vertex_index(v) for v in seq]
        if len(idx) < 3:
            raise InvalidInputError("an induced cycle needs at least 3 vertices")
        if len(set(idx)) != len(idx):
            raise InvalidInputError("cycle vertices must be distinct")
        n = len(idx)
        for a in range(n):
            for b in range(a + 1, n):
                adjacent = idx[b] in self._adj[idx[a]]
                consecutive = (b == a + 1) or (a == 0 and b == n - 1)
                if adjacent != consecutive:
                    return False
        return True

    def enumerate_induced_paths(
        self, length: int, avoid_extremal: bool = False
    ) -> list[tuple[Vertex, ...]]:
        """All induced paths on `length` vertices, one representative per
        reversal pair (first endpoint lexicographically smallest), sorted."""
        if length < 1:
            raise InvalidInputError("path length must be >= 1")
        allowed = [
            i
            for i, v in enumerate(self.vertices)
            if not (avoid_extremal and len(self._adj[i]) == len(self.vertices) - 1)
        ]
        allowed_set = set(allowed)
        results: list[tuple[Vertex, ...]] = []
        if length == 1:
            return [(self.vertices[i],) for i in allowed]

        path: list[int] = []

        def extend() -> None:
            if len(path) == length:
                if path[0] < path[-1]:
                    results.append(tuple(self.vertices[i] for i in path))
                return
            tail = path[-1]
            forbidden = set(path)
            for i in range(1, len(path) - 1):
                forbidden |= self._adj[path[i]]
            # the new vertex must be adjacent to the tail and to nothing else
            for nxt in sorted(self._adj[tail] & allowed_set):
                if nxt in forbidden:
                    continue
                if len(path) >= 2 and nxt in self._adj[path[0]]:
                    continue
                path.append(nxt)
                extend()
                path.pop()

        for start in allowed:
            path = [start]
            extend()
        results.sort()
        return results

    def commuting_partner_witness(
        self, chain: Sequence[Vertex], v: Vertex
    ) -> Optional[int]:
        """Smallest 1-based chain position i (from DEFAULT_WITNESS_POSITIONS)
        whose vertex commutes with v, i.e. is a non-edge partner of v or v
        itself."""
        vi = self.vertex_index(v)
        idx = [self.vertex_index(u) for u in chain]
        for i in DEFAULT_WITNESS_POSITIONS:
            if not 1 <= i <= len(idx):
                raise InvalidInputError(f"chain position {i} out of range")
            u = idx[i - 1]
            if u == vi or u not in self._adj[vi]:
                return i
        return None

    # -- exports ----------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "vertices": [vertex_str(v) for v in self.vertices],
            "edges": [list(e) for e in self.edges],
        }

    def to_dot(self) -> str:
        lines = ["graph gamma {"]
        for v in self.vertices:
            lines.append(f'  "{vertex_str(v)}";')
        for i, j in self.edges:
            lines.append(
                f'  "{vertex_str(self.vertices[i])}" -- "{vertex_str(self.vertices[j])}";'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_gamma(k: int) -> ArtinGraph:
    """Construct the comparability graph on {0,1}^k (1 <= k <= 8)."""
    return ArtinGraph(k)

