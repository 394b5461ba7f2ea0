"""Bundled canonical inputs: the standard curve labels on graph vertices
and the pattern/structure data files used by the verification pipeline.

The twelve labeled curves are the seven-chain a..g, the cycle closer h,
the two commuting extras u, v, and the two obstructing curves w+, w-.
"""

from __future__ import annotations

from importlib import resources

from .bitgraph import Vertex, build_gamma
from .errors import InvalidInputError
from .patterns import CurvePattern, pattern_from_json, pattern_from_vertices
from .ribbon import RibbonStructure, structure_from_json

#: Canonical vertex assignment for the twelve-curve configuration.
CURVE_VERTICES: dict[str, Vertex] = {
    "a": (0, 0, 0, 1),
    "b": (0, 1, 0, 1),
    "c": (0, 1, 0, 0),
    "d": (0, 1, 1, 0),
    "e": (0, 0, 1, 0),
    "f": (1, 0, 1, 0),
    "g": (1, 0, 0, 0),
    "h": (1, 0, 0, 1),
    "u": (0, 0, 1, 1),
    "v": (1, 1, 0, 0),
    "w+": (0, 1, 1, 1),
    "w-": (1, 1, 1, 0),
}

PATTERN_FILES = {
    "chain7": "chain7.json",
    "cycle8": "cycle8.json",
    "curves10": "curves10.json",
    "curves11": "curves11.json",
    "curves12": "curves12.json",
}

STRUCTURE_FILES = {
    "u-placement": "u_placement.json",
}

_LABEL_SETS = {
    "chain7": ("a", "b", "c", "d", "e", "f", "g"),
    "cycle8": ("a", "b", "c", "d", "e", "f", "g", "h"),
    "curves10": ("a", "b", "c", "d", "e", "f", "g", "h", "u", "v"),
    "curves11": ("a", "b", "c", "d", "e", "f", "g", "h", "u", "v", "w+"),
    "curves12": ("a", "b", "c", "d", "e", "f", "g", "h", "u", "v", "w+", "w-"),
}


def builtin_pattern_names() -> tuple[str, ...]:
    return tuple(sorted(PATTERN_FILES))


def load_pattern(name: str) -> CurvePattern:
    if name not in PATTERN_FILES:
        raise InvalidInputError(
            f"unknown builtin pattern {name!r}; available: {builtin_pattern_names()}"
        )
    return pattern_from_json(raw_file(PATTERN_FILES[name]))


def load_structure(name: str) -> RibbonStructure:
    if name not in STRUCTURE_FILES:
        raise InvalidInputError(
            f"unknown builtin structure {name!r}; available: {tuple(sorted(STRUCTURE_FILES))}"
        )
    return structure_from_json(raw_file(STRUCTURE_FILES[name]))


def raw_file(name: str) -> str:
    """Raw text of a bundled data file."""
    return resources.files("twistlat.data").joinpath(name).read_text()


def derive_pattern(name: str) -> CurvePattern:
    """Recompute a builtin pattern from the graph edge rule (cross-check
    for the bundled files)."""
    if name not in _LABEL_SETS:
        raise InvalidInputError(f"unknown builtin pattern {name!r}")
    g = build_gamma(4)
    labels = {lab: CURVE_VERTICES[lab] for lab in _LABEL_SETS[name]}
    return pattern_from_vertices(g, labels)
