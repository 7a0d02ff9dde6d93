"""The package's record classes: plain slotted classes, no dataclasses.

Five of them compare and hash by value, whatever their caches hold; the
others compare by identity.  Each takes its fields by position or keyword.
"""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ordcurves.bipoly import BivariatePolynomial, PlaneCurve, parse_poly
from ordcurves.constructions import Construction
from ordcurves.determined import (
    CurveRecord, DeterminedCurveSet, PointConfiguration, RegularityReport, enumerate_determined,
)
from ordcurves.linalg import AffineFlat, row_span
from ordcurves.ndfamilies import GrowthResult, NdQuantities, NdVerifyResult, nd_verify
from ordcurves.oracle import OracleReport
from ordcurves.projection import HyperprojectionMap, ProjectionPipelineState
from ordcurves.veronese import HyperplaneForm

SRC = Path(__file__).resolve().parent.parent / "src"
OCTET = [(0, 0), (1, 0), (0, 1), (3, 5), (2, 7), (5, 1), (1, 4), (6, 2)]


def test_fresh_import_loads_no_dataclasses_or_inspect():
    # a CLI call pays for every module its import pulls in; `dataclasses`
    # alone also loads `inspect`.  -S keeps site hooks from loading either.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import ordcurves, ordcurves.cli; "
        "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def _assert_same_value(a, b):
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_polynomials_compare_by_terms():
    p = parse_poly("x^2 - y + 1")
    _assert_same_value(p, BivariatePolynomial(tuple(p.terms)))
    assert p != parse_poly("x^2 - y")
    assert p != p.terms


def test_configurations_compare_by_points_and_degree_not_caches():
    filled = PointConfiguration.from_points(OCTET, 2)
    assert nd_verify(filled, [0, 1, 2]).ok  # fills the row and verdict caches
    assert filled._rows and filled._verdict
    _assert_same_value(filled, PointConfiguration.from_points(OCTET, 2))
    assert filled != PointConfiguration.from_points(OCTET, 3)
    assert filled != PointConfiguration.from_points(OCTET[:-1], 2)


def test_records_compare_by_value_not_curve_cache():
    config = PointConfiguration.from_points(OCTET, 2)
    read = enumerate_determined(config).records
    unread = enumerate_determined(config).records
    curve = read[0].curve
    assert read[0].curve is curve
    assert unread[0]._curve is None
    _assert_same_value(read[0], unread[0])
    assert read[0] != unread[1]
    rec = read[0]
    assert rec != CurveRecord(rec.d, rec.incidence, rec.hyperplanes + ((1,) * 6,))
    assert rec != CurveRecord(rec.d + 1, rec.incidence, rec.hyperplanes)


def test_flats_compare_by_normals_not_rows():
    # two spanning pairs of the line y = x in Q^2
    a = row_span(2, [(1, 0, 0), (1, 1, 1)])
    b = row_span(2, [(1, 2, 2), (2, 3, 3)])
    assert a.rows != b.rows
    _assert_same_value(a, b)
    assert a != row_span(2, [(1, 0, 0), (1, 1, 2)])
    assert a != row_span(3, [(1, 0, 0, 0), (1, 1, 1, 0)])


def test_curves_keep_radical_identity():
    _assert_same_value(PlaneCurve.from_poly(parse_poly("x^2 - 2*x*y + y^2")),
                       PlaneCurve.from_poly(parse_poly("2*x - 2*y")))


FLAT = AffineFlat(1, ((1, 0),), ((0, 1),))
CASES = [
    (BivariatePolynomial, {"terms": (((1, 0), Fraction(1)),)}),
    (PlaneCurve, {"representative": parse_poly("x"), "radical": parse_poly("x")}),
    (Construction, {"config": PointConfiguration.from_points(OCTET, 2), "provenance": {}}),
    (PointConfiguration, {"points": ((Fraction(0), Fraction(0)),), "d": 1}),
    (CurveRecord, {"d": 1, "incidence": frozenset({0}), "hyperplanes": ((0, 1, 0),)}),
    (DeterminedCurveSet, {"d": 2, "n": None, "records": ()}),
    (RegularityReport, {"is_regular": False, "ratio": Fraction(1), "threshold": Fraction(1, 2),
                        "witness": (0, 1)}),
    (AffineFlat, {"ambient_dim": 1, "rows": ((1, 0),), "normals": ((0, 1),)}),
    (NdQuantities, {"d": 3, "e": 1, "v_e": FLAT, "w_e": FLAT, "alpha": 0, "beta": 1,
                    "gamma": 2, "mu": 3, "tau": 4}),
    (NdVerifyResult, {"ok": True, "failures": (), "sections": ((1, (0, 1), (0, 1, -1)),)}),
    (GrowthResult, {"success": True, "chain": (0, 1), "blocked": (), "guard_trace": (2,)}),
    (OracleReport, {"instance": "i", "quantity": "q", "oracle_value": 1, "main_value": 1}),
    (HyperprojectionMap, {"forms": ((0, 1),)}),
    (ProjectionPipelineState, {
        "basis": (0,), "d": 2, "projector": None, "catalog": (),
        "d_indices": (), "e_indices": (), "s_points": (), "t_points": (), "delta": 0,
        "n": 1, "trace": {}}),
    (HyperplaneForm, {"d": 1, "constant": Fraction(0), "coeffs": (Fraction(1), Fraction(0))}),
]


@pytest.mark.parametrize("cls, fields", CASES, ids=[cls.__name__ for cls, _ in CASES])
def test_fields_by_keyword_and_position(cls, fields):
    for obj in (cls(**fields), cls(*fields.values())):
        assert {name: getattr(obj, name) for name in fields} == fields
        assert not hasattr(obj, "__dict__")


def test_field_defaults():
    assert NdVerifyResult(ok=True, failures=()).sections == ()
    assert GrowthResult(success=False, chain=(), blocked=()).guard_trace == ()
