"""Exact verification toolkit for transvection representations of
bit-tuple Artin graphs and for minimal-genus realizability of curve
intersection patterns."""

__version__ = "0.1.0"

from .bitgraph import (
    AFFINE_CYCLE,
    BR8_CHAIN,
    ArtinGraph,
    ChainReport,
    build_gamma,
    parse_vertex,
    vertex_str,
)
from .errors import (
    DegenerateFormError,
    InconclusiveError,
    InvalidInputError,
    RefinementError,
)
from .lattice import (
    QuotientLattice,
    SkewLattice,
    gram_matrix,
    hl_pairing,
    quotient_lattice,
    sublattice_rank,
    symplectic_basis,
)
from .patterns import (
    CurvePattern,
    f2_genus_lower_bound,
    make_pattern,
    pattern_from_json,
    pattern_from_vertices,
    subpattern,
    validate_pattern,
)
from .ribbon import (
    RibbonStructure,
    RibbonSurface,
    enumerate_structures,
    make_structure,
    naive_min_genus,
    reflect,
    restrict,
    structure_from_json,
    surface_of,
)
from .search import (
    SearchResult,
    is_realizable,
    min_genus,
)
from .transvect import (
    QuadraticRefinement,
    RelationReport,
    chain_parity_check,
    conjugacy_witnesses,
    invariant_span_closure,
    quadratic_refinement,
    transvection,
    verify_all_relations,
    word_matrix,
)

__all__ = [
    "AFFINE_CYCLE",
    "BR8_CHAIN",
    "ArtinGraph",
    "ChainReport",
    "CurvePattern",
    "DegenerateFormError",
    "InconclusiveError",
    "InvalidInputError",
    "QuadraticRefinement",
    "QuotientLattice",
    "RefinementError",
    "RelationReport",
    "RibbonStructure",
    "RibbonSurface",
    "SearchResult",
    "SkewLattice",
    "build_gamma",
    "chain_parity_check",
    "conjugacy_witnesses",
    "enumerate_structures",
    "f2_genus_lower_bound",
    "gram_matrix",
    "hl_pairing",
    "invariant_span_closure",
    "is_realizable",
    "make_pattern",
    "make_structure",
    "min_genus",
    "naive_min_genus",
    "parse_vertex",
    "pattern_from_json",
    "pattern_from_vertices",
    "quadratic_refinement",
    "quotient_lattice",
    "reflect",
    "restrict",
    "structure_from_json",
    "sublattice_rank",
    "subpattern",
    "surface_of",
    "symplectic_basis",
    "transvection",
    "validate_pattern",
    "verify_all_relations",
    "vertex_str",
    "word_matrix",
]
