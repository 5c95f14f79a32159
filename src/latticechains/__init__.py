"""Exact verification of a q-identity over convex lattice chains.

Chains live in the right triangle with legs i and j = n - i; the package
enumerates them, proves the identity by exact polynomial arithmetic,
cross-checks the probabilistic form by simulation, and searches for
abstract exponent multisets with the same unit-sum property.
"""

from .geometry import (
    ChainPolygon,
    PolygonStats,
    TriangleSpec,
    convex_hull_chain,
    hypotenuse,
    polygon_stats,
    triangle_interior_points,
)
from .enumeration import (
    CompositionD,
    enumerate_D,
    enumerate_polygons,
)
from .polyalgebra import (
    QHalfPoly,
    UnitPoly,
    q_monomial,
    term_x_pow_times_one_minus_x_pow,
)
from .verification import (
    IdentityReport,
    lhs_main_via_D,
    lhs_main_via_polygons,
    rhs_main,
    unit_sum,
    unit_sum_process,
    verify_all,
)
from .montecarlo import SimulationConfig, FrequencyTable, compare, exact_prob, simulate
from .explorer import (
    SearchCapExceeded,
    Signature,
    is_unit_multiset,
    match_signature,
    search_unit_multisets,
    triangle_signature,
    triangle_signatures,
)

__all__ = [
    "ChainPolygon",
    "CompositionD",
    "FrequencyTable",
    "IdentityReport",
    "PolygonStats",
    "QHalfPoly",
    "SearchCapExceeded",
    "Signature",
    "SimulationConfig",
    "TriangleSpec",
    "UnitPoly",
    "compare",
    "convex_hull_chain",
    "enumerate_D",
    "enumerate_polygons",
    "exact_prob",
    "hypotenuse",
    "is_unit_multiset",
    "lhs_main_via_D",
    "lhs_main_via_polygons",
    "match_signature",
    "polygon_stats",
    "q_monomial",
    "rhs_main",
    "search_unit_multisets",
    "simulate",
    "term_x_pow_times_one_minus_x_pow",
    "triangle_interior_points",
    "triangle_signature",
    "triangle_signatures",
    "unit_sum",
    "unit_sum_process",
    "verify_all",
]
