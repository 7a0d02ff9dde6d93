"""Exact-arithmetic enumeration of determined and ordinary plane curves.

Everything runs over the rationals: Veronese lifts turn degree-d curve
membership into affine hyperplane membership, determined curves are the
pullbacks of hyperplanes spanned by lifted points, and a projection from
the span of a verified basis reduces the hunt for low-incidence curves to a
two-point-line search in the projective plane.  Brute-force oracles
re-derive the central sets straight from their definitions for
cross-validation.
"""

from .bipoly import (
    BivariatePolynomial,
    PlaneCurve,
    parse_poly,
    poly_gcd,
    rational_points_on_curve,
    sigma_fiber_count,
    squarefree_radical,
)
from .constructions import (
    Construction,
    construct_theorem6,
    construct_theorem8,
    sample_configuration,
)
from .determined import (
    DeterminedCurveSet,
    PointConfiguration,
    contained_in_curve,
    enumerate_determined,
    max_curve_richness,
    ordinary_curves,
    regularity_report,
)
from .errors import HypothesisViolation, InputFormatError, InvariantViolation
from .linalg import AffineFlat, flat_span, nullspace, rank
from .ndfamilies import grow_nd_chain, nd_quantities, nd_verify
from .oracle import (
    OracleReport,
    compare_determined,
    oracle_determined,
    oracle_max_richness,
    oracle_nd,
)
from .projection import (
    HyperprojectionMap,
    build_pipeline,
    curves_from_basis,
    exceptional_catalog,
    two_point_lines,
)
from .veronese import HyperplaneForm, lift, tau, tau_inverse

__all__ = [
    "AffineFlat",
    "BivariatePolynomial",
    "Construction",
    "DeterminedCurveSet",
    "HyperplaneForm",
    "HyperprojectionMap",
    "HypothesisViolation",
    "InputFormatError",
    "InvariantViolation",
    "OracleReport",
    "PlaneCurve",
    "PointConfiguration",
    "build_pipeline",
    "compare_determined",
    "construct_theorem6",
    "construct_theorem8",
    "contained_in_curve",
    "curves_from_basis",
    "enumerate_determined",
    "exceptional_catalog",
    "flat_span",
    "grow_nd_chain",
    "lift",
    "max_curve_richness",
    "nd_quantities",
    "nd_verify",
    "nullspace",
    "oracle_determined",
    "oracle_max_richness",
    "oracle_nd",
    "ordinary_curves",
    "parse_poly",
    "poly_gcd",
    "rank",
    "rational_points_on_curve",
    "regularity_report",
    "sample_configuration",
    "sigma_fiber_count",
    "squarefree_radical",
    "tau",
    "tau_inverse",
    "two_point_lines",
]

__version__ = "0.1.0"
