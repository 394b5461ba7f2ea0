"""Spans at twistlat's module boundaries, recorded from outside the program.

`Tracer.install` replaces public functions with timing wrappers at the
module attributes their callers look up.  The modules bind names with
`from .x import y`, so a function is wrapped where it is called from
(`twistlat.cli.verify_all_relations`, `twistlat.search.surface_of`), not
only where it is defined.  Each call records one span: layer, name, the
span that was open when it started, start and end.  Spans stay in memory;
`layer_metrics` turns one pass's spans into the per-layer metrics.

Spans are recorded in the benchmark process only.  Pool workers forked by
`--threads 2` inherit the wrappers, but their spans are not collected; the
CPU they use is measured apart (`search.worker_cpu_s`).
"""

from __future__ import annotations

import functools
import time
import types

# transvect functions called by the CLI, and the metric each one counts in
_TRANSVECT_GROUPS = {
    "verify_all_relations": "transvect.verify_all_relations_s",
    "conjugacy_witnesses": "transvect.conjugacy_witnesses_s",
    "transvection_shape": "transvect.transvection_shape_s",
    "quadratic_refinement": "transvect.refinement_s",
    "refinement_identity_ok": "transvect.refinement_s",
    "refinement_invariant_under": "transvect.refinement_s",
    "invariant_span_closure": "transvect.invariant_span_closure_s",
    "chain_parity_check": None,
}

#: The per-layer metrics `layer_metrics` computes, with their units.
LAYER_UNITS = {
    "cli.self_s": "s",
    "bitgraph.s": "s",
    "lattice.s": "s",
    "intlinalg.mat_mul_calls": "count",
    "intlinalg.mat_mul_s": "s",
    "transvect.verify_all_relations_s": "s",
    "transvect.conjugacy_witnesses_s": "s",
    "transvect.transvection_shape_s": "s",
    "transvect.refinement_s": "s",
    "transvect.invariant_span_closure_s": "s",
    "search.s": "s",
    "search.self_s": "s",
    "search.nodes_per_s": "nodes/s",
    "search.engine_builds": "count",
    "ribbon.surface_of_calls": "count",
    "ribbon.surface_of_s": "s",
}

# span record fields
_LAYER, _NAME, _PARENT, _START, _END = range(5)


class Tracer:
    """Records spans for calls through the wrapped attributes."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, layer: str, name: str | None = None) -> None:
        original = owner.__dict__[attr]
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        record = [layer, name or attr]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = record + [stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return original(*args, **kwargs)
            finally:
                span[_END] = clock()
                stack.pop()

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def install(self, tw) -> None:
        """Wrap the public functions at each module boundary of `tw`."""
        cli, search = tw.cli, tw.search
        self.wrap(cli, "main", "cli")
        self.wrap(cli, "build_gamma", "bitgraph")
        graph = tw.bitgraph.ArtinGraph
        for attr, value in list(vars(graph).items()):
            if not attr.startswith("_") and isinstance(value, types.FunctionType):
                self.wrap(graph, attr, "bitgraph")
        for attr in ("gram_matrix", "quotient_lattice", "sublattice_rank"):
            self.wrap(cli, attr, "lattice")
        self.wrap(tw.intlinalg, "mat_mul", "intlinalg")
        for attr in _TRANSVECT_GROUPS:
            self.wrap(cli, attr, "transvect")
        self.wrap(cli, "min_genus", "search")
        self.wrap(cli, "is_realizable", "search")
        self.wrap(search, "min_genus", "search")
        self.wrap(search, "pattern_from_json", "patterns", "pattern_from_json@search")
        self.wrap(search, "surface_of", "ribbon", "surface_of@search")
        self.wrap(cli, "surface_of", "ribbon", "surface_of@cli")
        self.wrap(tw.builtin, "load_pattern", "builtin")
        self.wrap(tw.builtin, "load_structure", "builtin")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take(self) -> list[list]:
        """The spans recorded since the last call, and a fresh start."""
        out = list(self.spans)
        self.spans.clear()
        return out


def _child_time(spans: list[list]) -> list[float]:
    """For each span, the time its direct child spans cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[_PARENT] >= 0:
            child[s[_PARENT]] += s[_END] - s[_START]
    return child


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total time and self time."""
    out: dict[str, dict[str, float]] = {}
    for s, c in zip(spans, _child_time(spans)):
        key = f"{s[_LAYER]}.{s[_NAME]}"
        row = out.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s[_END] - s[_START]
        row["self_s"] += s[_END] - s[_START] - c
    return out


def layer_metrics(spans: list[list], nodes: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass.

    A layer's time (`<layer>.s`) counts its outermost spans only, so a
    layer calling itself is not counted twice.  Self time is span time
    minus the time of its direct child spans.
    """
    child = _child_time(spans)

    def outermost(i: int) -> bool:
        layer, p = spans[i][_LAYER], spans[i][_PARENT]
        while p >= 0:
            if spans[p][_LAYER] == layer:
                return False
            p = spans[p][_PARENT]
        return True

    m = {name: 0 if unit == "count" else 0.0 for name, unit in LAYER_UNITS.items()}
    for i, s in enumerate(spans):
        layer, name, dur = s[_LAYER], s[_NAME], s[_END] - s[_START]
        if layer == "cli":
            m["cli.self_s"] += dur - child[i]
        elif layer in ("bitgraph", "lattice", "search") and outermost(i):
            m[f"{layer}.s"] += dur
        if layer == "search":
            m["search.self_s"] += dur - child[i]
        elif name == "mat_mul":
            m["intlinalg.mat_mul_calls"] += 1
            m["intlinalg.mat_mul_s"] += dur
        elif layer == "transvect" and _TRANSVECT_GROUPS[name]:
            m[_TRANSVECT_GROUPS[name]] += dur
        elif name == "pattern_from_json@search":
            m["search.engine_builds"] += 1
        elif name == "surface_of@search":
            m["ribbon.surface_of_calls"] += 1
            m["ribbon.surface_of_s"] += dur
    m["search.nodes_per_s"] = nodes / m["search.s"] if m["search.s"] else 0.0
    return m
