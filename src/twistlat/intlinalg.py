"""Exact linear algebra over the integers.

Everything here works on plain Python ints (arbitrary precision), so there
is no overflow and no floating point.  Matrices are sequences of rows; the
canonical stored form is a tuple of tuples.

Conventions:
  * row HNF means upper row-echelon with positive pivots and entries above
    each pivot reduced into [0, pivot);
  * kernels are right kernels, returned as HNF row bases;
  * all bases of sublattices of Z^n are row bases.
"""

from __future__ import annotations

from math import gcd
from typing import Optional, Sequence

IntMatrix = tuple[tuple[int, ...], ...]
IntVector = tuple[int, ...]


def freeze(rows: Sequence[Sequence[int]]) -> IntMatrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m: Sequence[Sequence[int]]) -> IntMatrix:
    return tuple(zip(*[tuple(r) for r in m])) if m else ()


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> IntVector:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def vec_dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(u, v))


def mat_sub(a, b) -> IntMatrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def is_zero_vector(v: Sequence[int]) -> bool:
    return all(x == 0 for x in v)


def vector_content(v: Sequence[int]) -> int:
    """gcd of the entries (0 for the zero vector)."""
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def row_hnf(
    rows: Sequence[Sequence[int]], with_transform: bool = False
):
    """Row Hermite normal form.

    Returns H, or (H, U) with U unimodular and U @ rows == H.  Zero rows are
    moved to the bottom; pivots are positive and entries above a pivot lie in
    [0, pivot).
    """
    h = [list(r) for r in rows]
    m = len(h)
    n = len(h[0]) if m else 0
    u = [list(r) for r in identity(m)] if with_transform else None

    def addmul(dst: int, src: int, q: int) -> None:
        hr, hs = h[dst], h[src]
        for j in range(n):
            hr[j] -= q * hs[j]
        if u is not None:
            ur, us = u[dst], u[src]
            for j in range(m):
                ur[j] -= q * us[j]

    def swap(i: int, j: int) -> None:
        h[i], h[j] = h[j], h[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]

    def negate(i: int) -> None:
        h[i] = [-x for x in h[i]]
        if u is not None:
            u[i] = [-x for x in u[i]]

    r = 0
    for c in range(n):
        # gcd-reduce column c below row r until a single nonzero pivot remains
        while True:
            nz = [i for i in range(r, m) if h[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(h[i][c]))
            swap(r, i0)
            done = True
            for i in range(r + 1, m):
                if h[i][c] != 0:
                    addmul(i, r, h[i][c] // h[r][c])
                    if h[i][c] != 0:
                        done = False
            if done:
                break
        if r < m and h[r][c] != 0:
            if h[r][c] < 0:
                negate(r)
            p = h[r][c]
            for i in range(r):
                q = h[i][c] // p  # floor division puts the entry in [0, p)
                if q:
                    addmul(i, r, q)
            r += 1
            if r == m:
                break
    res = freeze(h)
    if with_transform:
        return res, freeze(u)
    return res


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Q (equivalently over Z up to torsion) of the row span."""
    h = row_hnf(rows)
    return sum(1 for r in h if not is_zero_vector(r))


def kernel_basis(a: Sequence[Sequence[int]]) -> IntMatrix:
    """HNF row basis of the saturated right kernel {x : a @ x = 0}."""
    at = transpose(a)
    if not at:
        return ()
    h, u = row_hnf(at, with_transform=True)
    ker = [u[i] for i in range(len(h)) if is_zero_vector(h[i])]
    if not ker:
        return ()
    hk = row_hnf(ker)
    return tuple(r for r in hk if not is_zero_vector(r))


def det(a: Sequence[Sequence[int]]) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(r) for r in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def hnf_coords(basis: Sequence[Sequence[int]], v: Sequence[int]) -> Optional[IntVector]:
    """Coordinates c with c @ basis == v, for an HNF row basis; None if v
    is not in the integer row span."""
    pivots = []
    for row in basis:
        j = next((j for j, x in enumerate(row) if x != 0), None)
        if j is None:
            raise ValueError("HNF basis contains a zero row")
        pivots.append(j)
    rem = list(v)
    coords = []
    for row, j in zip(basis, pivots):
        if rem[j] % row[j] != 0:
            return None
        c = rem[j] // row[j]
        coords.append(c)
        if c:
            for t in range(len(rem)):
                rem[t] -= c * row[t]
    if not is_zero_vector(rem):
        return None
    return tuple(coords)


def rank_mod2(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the two-element field."""
    masks = []
    for row in rows:
        m = 0
        for j, x in enumerate(row):
            if x & 1:
                m |= 1 << j
        masks.append(m)
    r = 0
    for col in range(max((m.bit_length() for m in masks), default=0)):
        bit = 1 << col
        piv = next((i for i in range(r, len(masks)) if masks[i] & bit), None)
        if piv is None:
            continue
        masks[r], masks[piv] = masks[piv], masks[r]
        for i in range(len(masks)):
            if i != r and masks[i] & bit:
                masks[i] ^= masks[r]
        r += 1
    return r


class RowSpace:
    """Incrementally maintained rational row space of integer vectors.

    Rows are kept in integer echelon form and made primitive after each
    reduction, which keeps entries small.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._rows: list[list[int]] = []
        self._pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def rows(self) -> list[list[int]]:
        return [row[:] for row in self._rows]

    def reduce(self, v: Sequence[int]) -> list[int]:
        w = [int(x) for x in v]
        for row, p in zip(self._rows, self._pivots):
            if w[p] != 0:
                a, b = row[p], w[p]
                w = [a * x - b * y for x, y in zip(w, row)]
        return w

    def add(self, v: Sequence[int]) -> bool:
        """Add a vector; True if the rank grew."""
        w = self.reduce(v)
        if is_zero_vector(w):
            return False
        g = vector_content(w)
        w = [x // g for x in w]
        p = next(j for j, x in enumerate(w) if x != 0)
        self._rows.append(w)
        self._pivots.append(p)
        # keep echelon order by pivot
        order = sorted(range(len(self._rows)), key=lambda i: self._pivots[i])
        self._rows = [self._rows[i] for i in order]
        self._pivots = [self._pivots[i] for i in order]
        return True

    def contains(self, v: Sequence[int]) -> bool:
        return is_zero_vector(self.reduce(v))
