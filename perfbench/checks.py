"""Output checks for the benchmark workloads.

Every check compares a command's `--json` output with a value the
benchmark computes apart from the program (an F2 rank by its own
elimination, the Sebastiani-Thom Gram matrix, the agreement of a witness
with the pinned placement up to curve directions) or with a property the
search method must have (an `exceeds` verdict is exhausted, a witness
validates and traces to the reported genus, a run at two threads equals
the run at one).  No check compares with a stored copy of earlier output.

A check raises `CheckFailed` with the reason; it returns nothing.
"""

from __future__ import annotations

import itertools

#: The A2 Seifert form; its 4-fold Kronecker power T gives the Gram matrix
#: T - T^t of x1^3 + ... + x4^3 (Sebastiani-Thom).
SEIFERT_A2 = ((1, 0), (-1, 1))

#: The neighbourhood of the pinned ten-curve placement: one component with
#: (Euler characteristic, boundary count, genus) = (-12, 4, 5).
U_PLACEMENT_SURFACE = ((-12, 4, 5),)

#: Result fields that a run at any thread count must reproduce exactly.
DETERMINISTIC_FIELDS = (
    "verdict",
    "realizable",
    "genus",
    "budget",
    "nodes_explored",
    "exhausted",
    "note",
    "witness",
)


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


# -- independent computations ---------------------------------------------------


def f2_rank(rows) -> int:
    """Rank over F2 of a 0/1 matrix, by elimination on row bitmasks."""
    basis: list[int] = []
    for row in rows:
        v = int("".join(str(x & 1) for x in row), 2)
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


def f2_genus_bound(pattern) -> int:
    """ceil(r/2) for r the F2 rank of the intersection matrix."""
    return (f2_rank(pattern.inter) + 1) // 2


def kron(a, b) -> list[list[int]]:
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def sebastiani_thom_gram(k: int) -> list[list[int]]:
    """T - T^t for T the k-fold Kronecker power of the A2 Seifert form."""
    t = [[1]]
    for _ in range(k):
        t = kron(t, SEIFERT_A2)
    n = len(t)
    return [[t[i][j] - t[j][i] for j in range(n)] for i in range(n)]


def is_subpattern(small, big) -> bool:
    """Every curve of `small` is a curve of `big`, and two curves meet in
    `small` exactly when they meet in `big`."""
    if not set(small.curves) <= set(big.curves):
        return False
    return all(
        small.inter[i][j] == big.inter[big.curves.index(a)][big.curves.index(b)]
        for i, a in enumerate(small.curves)
        for j, b in enumerate(small.curves)
    )


def _same_cycle(a, b) -> bool:
    a, b = tuple(a), tuple(b)
    return len(a) == len(b) and (not a or any(
        a[k:] + a[:k] == b for k in range(len(a))
    ))


def agrees_up_to_directions(r, ref) -> bool:
    """Whether structure `r` is `ref` with some curves reversed.

    Reversing a curve reverses its cyclic visit order and swaps the in and
    out ends of each of its crossings, which flips that crossing's bit; a
    crossing of two reversed curves keeps its bit.
    """
    orders, ref_orders = dict(r.visit_orders), dict(ref.visit_orders)
    bits, ref_bits = r.bits(), ref.bits()
    if set(orders) != set(ref_orders) or set(bits) != set(ref_bits):
        return False
    labels = sorted(ref_orders)
    options = []
    for lab in labels:
        flips = [
            e
            for e, want in ((0, ref_orders[lab]), (1, tuple(reversed(ref_orders[lab]))))
            if _same_cycle(orders[lab], want)
        ]
        if not flips:
            return False
        options.append(flips)
    for choice in itertools.product(*options):
        flip = dict(zip(labels, choice))
        if all(
            bits[key] == bit ^ flip[key[0]] ^ flip[key[1]]
            for key, bit in ref_bits.items()
        ):
            return True
    return False


# -- facts every run checks once ------------------------------------------------


class Facts:
    """Independent facts about the bundled inputs, computed once per run."""

    def __init__(self, tw):
        self.tw = tw
        builtin = tw.builtin
        self.patterns = {
            name: builtin.load_pattern(name) for name in builtin.builtin_pattern_names()
        }
        self.bounds = {name: f2_genus_bound(p) for name, p in self.patterns.items()}
        self.u_placement = builtin.load_structure("u-placement")
        self.u_labels = tuple(sorted(lab for lab, _ in self.u_placement.visit_orders))

    def check_inputs(self) -> None:
        """The bundled files are what the graph rule derives, and the pinned
        placement is the connected genus-5 neighbourhood of ten curves."""
        for name, p in self.patterns.items():
            require(
                p == self.tw.builtin.derive_pattern(name),
                f"bundled pattern {name} differs from builtin.derive_pattern",
            )
        require(
            is_subpattern(self.patterns["curves11"], self.patterns["curves12"]),
            "curves11 is not a subpattern of curves12",
        )
        sub = self.tw.patterns.subpattern(self.patterns["curves12"], self.u_labels)
        require(
            self.tw.ribbon.surface_of(sub, self.u_placement).components
            == U_PLACEMENT_SURFACE,
            f"u-placement does not trace to {U_PLACEMENT_SURFACE}",
        )

    def check_gram(self) -> None:
        gram = [list(row) for row in self.tw.lattice.gram_matrix(4).gram]
        require(
            gram == sebastiani_thom_gram(4),
            "gram_matrix(4) differs from T - T^t, T the 4th Kronecker power of [[1,0],[-1,1]]",
        )

    # -- per-output checks ---------------------------------------------------------

    def _witness(self, name: str, out: dict):
        require(out.get("witness") is not None, "no witness reported")
        p = self.patterns[name]
        r = self.tw.ribbon.structure_from_json(out["witness"])
        problems = self.tw.ribbon.validate_structure(p, r)
        require(not problems, f"witness rejected by validate_structure: {problems}")
        return p, r, self.tw.ribbon.surface_of(p, r).total_genus

    def verify_paper(self, code: int, out: dict) -> None:
        rows = out.get("rows", [])
        failing = [row["name"] for row in rows if not row["pass"]]
        require(code == 0, f"exit code {code}, failing rows {failing}")
        require(len(rows) == 19 and out.get("passed") == 19, f"{out.get('passed')}/{len(rows)} rows pass")
        require(not failing, f"failing rows {failing}")

    def min_genus_exact(self, name: str, code: int, out: dict) -> None:
        """The minimum is the F2 bound, and the witness reaches it."""
        bound = self.bounds[name]
        require(code == 0, f"exit code {code}")
        require(out.get("verdict") == "exact", f"verdict {out.get('verdict')!r}, expected exact")
        require(out.get("genus") == bound, f"genus {out.get('genus')}, F2 bound is {bound}")
        require(out.get("nodes_explored", 0) > 0, "no nodes explored")
        _, _, traced = self._witness(name, out)
        require(traced == bound, f"witness traces to genus {traced}, reported {bound}")

    def exceeds(self, name: str, budget: int, code: int, out: dict) -> None:
        """An exhaustive `exceeds`, at a budget the F2 bound does not decide."""
        require(code == 0, f"exit code {code}")
        require(self.bounds[name] <= budget, f"budget {budget} below the F2 bound")
        verdict = out.get("verdict", "exceeds" if out.get("realizable") is False else "realizable")
        require(verdict == "exceeds", f"verdict {verdict!r}, expected exceeds")
        require(out.get("exhausted") is True, "exceeds verdict without exhaustion")
        require(out.get("nodes_explored", 0) > 0, "exceeds verdict without a search")

    def pinned_control(self, name: str, genus: int, code: int, out: dict) -> None:
        """Realizable within `genus`, and on the ten pinned curves the
        witness is u-placement up to curve directions."""
        require(code == 0, f"exit code {code}")
        require(out.get("realizable") is True, "pinned control reported not realizable")
        p, r, traced = self._witness(name, out)
        require(self.bounds[name] <= traced <= genus, f"witness traces to genus {traced}")
        sub, pinned = self.tw.ribbon.restrict(p, r, self.u_labels)
        require(
            agrees_up_to_directions(pinned, self.u_placement),
            "witness disagrees with u-placement on the pinned curves",
        )
        require(
            self.tw.ribbon.surface_of(sub, pinned).components == U_PLACEMENT_SURFACE,
            "pinned curves of the witness do not trace to (-12, 4, 5)",
        )
        if name == "curves12":
            # curves11 lies inside curves12, so its restriction embeds too
            sub11, r11 = self.tw.ribbon.restrict(p, r, self.patterns["curves11"].curves)
            g11 = self.tw.ribbon.surface_of(sub11, r11).total_genus
            require(g11 <= genus, f"restriction to curves11 traces to genus {g11}")


def same_as_reference(out: dict, ref: dict) -> None:
    """A run at two threads reports what the run at one thread reports."""
    for key in DETERMINISTIC_FIELDS:
        require(
            out.get(key) == ref.get(key),
            f"{key} at --threads 2 is {out.get(key)!r}, at --threads 1 {ref.get(key)!r}",
        )
