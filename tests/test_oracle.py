import ast
import importlib
import pkgutil
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

import ordcurves.bipoly
import ordcurves.ndfamilies
import ordcurves.oracle
import ordcurves.projection
from ordcurves.constructions import sample_configuration
from ordcurves.determined import PointConfiguration, enumerate_determined, max_curve_richness
from ordcurves.errors import HypothesisViolation
from ordcurves.ndfamilies import nd_verify
from ordcurves.oracle import (
    OracleReport,
    compare_determined,
    oracle_determined,
    oracle_max_richness,
    oracle_nd,
)

SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]
OCTET = [(0, 0), (1, 0), (0, 1), (3, 5), (2, 7), (5, 1), (1, 4), (6, 2)]


def test_oracle_determined_square():
    A = PointConfiguration.from_points(SQUARE, 1)
    radicals = oracle_determined(A)
    assert len(radicals) == 6
    main = enumerate_determined(A)
    assert radicals == frozenset(rec.curve.radical for rec in main.records)


def test_oracle_determined_structured():
    pts = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (4, 3)]
    A = PointConfiguration.from_points(pts, 1)
    report = compare_determined(A, enumerate_determined(A), "structured")
    assert report.agree


def test_oracle_determined_precondition():
    with pytest.raises(HypothesisViolation):
        oracle_determined(PointConfiguration.from_points([(0, 0), (1, 0), (2, 0)], 1))


def test_oracle_nd_examples():
    A = PointConfiguration.from_points(OCTET, 2)
    assert oracle_nd(A, [0, 1, 2], 2)
    collinear = PointConfiguration.from_points([(0, 0), (1, 0), (2, 0), (0, 1)], 2)
    assert not oracle_nd(collinear, [0, 1, 2], 2)
    with pytest.raises(HypothesisViolation):
        oracle_nd(A, [0, 1], 2)


def test_oracle_nd_agrees_with_main_spotcheck():
    rng = random.Random(13)
    pts = set()
    while len(pts) < 8:
        pts.add((rng.randint(-6, 6), rng.randint(-6, 6)))
    A = PointConfiguration.from_points(sorted(pts), 2)
    for idx in combinations(range(8), 3):
        assert oracle_nd(A, list(idx), 2) == nd_verify(A, list(idx), 2).ok


def test_oracle_report_shape():
    report = OracleReport("inst", "quantity", 3, 3)
    assert report.agree
    obj = report.to_json_obj()
    assert obj == {
        "instance": "inst",
        "quantity": "quantity",
        "oracle": 3,
        "main": 3,
        "agree": True,
    }
    assert not OracleReport("inst", "quantity", 3, 4).agree


def _rational(rng, height):
    return Fraction(rng.randint(-height, height), rng.randint(1, height))


CURVES = {
    "line": lambda x, a, b: a * x + b,
    "conic": lambda x, a, b: a * x * x + b * x + 1,
    "cubic": lambda x, a, b: x**3 - x,
}


def _richness_set(seed, kind, on_curve, free):
    """Shuffled non-integer points: `on_curve` on one rational line, parabola
    or y = x^3 - x (x of height up to 1000), `free` of height up to 10^6."""
    rng = random.Random(seed)
    a, b = _rational(rng, 1000), _rational(rng, 10**6)
    pts = set()
    while len(pts) < on_curve:
        x = _rational(rng, 1000)
        pts.add((x, CURVES[kind](x, a, b)))
    while len(pts) < on_curve + free:
        pts.add((_rational(rng, 10**6), _rational(rng, 10**6)))
    pts = sorted(pts)
    rng.shuffle(pts)
    return pts


# (e, curve kind, points on it, further points): heavy sections, sets on one
# curve of degree <= e, and sets of at most C(e+2,2)-1 points
RICHNESS_CASES = [
    (1, "line", 4, 4), (1, "line", 0, 7), (1, "line", 5, 0), (1, "line", 0, 2),
    (2, "line", 4, 4), (2, "conic", 6, 3), (2, "conic", 7, 0), (2, "cubic", 5, 3),
    (2, "line", 0, 5), (3, "cubic", 10, 2), (3, "conic", 7, 4), (3, "cubic", 8, 0),
    (3, "line", 0, 12), (3, "line", 0, 9),
]


@pytest.mark.parametrize("e, kind, on_curve, free", RICHNESS_CASES)
def test_max_richness_matches_oracle(e, kind, on_curve, free):
    pts = _richness_set(7 * e + on_curve + free, kind, on_curve, free)
    A = PointConfiguration.from_points(pts, e)
    size, witness = max_curve_richness(A, e)
    assert (size, witness) == oracle_max_richness(A, e)
    assert size >= min(len(pts), max(on_curve, comb(e + 2, 2) - 1))
    assert witness == tuple(sorted(witness))


def _cubic_with_line(seed):
    """(-1, 0), (0, 0), (1, 0), collinear on y = x^3 - x, and four more
    points of that cubic with x of height up to 1000."""
    rng = random.Random(seed)
    pts = {(-1, 0), (0, 0), (1, 0)}
    while len(pts) < 7:
        x = _rational(rng, 1000)
        pts.add((x, x**3 - x))
    return sorted(pts)


# Bases of 7 points at d=3 (cut C(5,2)-C(5-e,2) = 4 at e=1 and 7 at e=2):
# 5 collinear points fail condition i, 4 collinear points condition ii, 7
# points on one conic condition ii at e=2; 3 collinear points and 6 points
# on a conic sit one below the cut and pass condition iii
ND_D3_CASES = [
    ("line-5", lambda: _richness_set(40, "line", 5, 2), False),
    ("line-4", lambda: _richness_set(41, "line", 4, 3), False),
    ("line-3", lambda: _richness_set(42, "line", 3, 4), True),
    ("conic-7", lambda: _richness_set(43, "conic", 7, 0), False),
    ("conic-6", lambda: _richness_set(44, "conic", 6, 1), True),
    ("cubic-7", lambda: _richness_set(45, "cubic", 7, 0), True),
    ("cubic-line-3", lambda: _cubic_with_line(46), True),
    ("random-general-1", lambda: sample_configuration(
        "random_general", seed=1, count=7, d=3).config.points, True),
    ("random-general-2", lambda: sample_configuration(
        "random_general", seed=2, count=7, d=3).config.points, True),
]


@pytest.mark.parametrize(
    "build, expected", [case[1:] for case in ND_D3_CASES], ids=[case[0] for case in ND_D3_CASES]
)
def test_nd_verify_matches_oracle_d3(build, expected):
    pts = build()
    A = PointConfiguration.from_points(pts, 3)
    basis = list(range(7))
    assert oracle_nd(A, basis, 3) == expected
    assert nd_verify(A, basis, 3).ok == expected


def test_index_basis_needs_configuration_and_range():
    with pytest.raises(HypothesisViolation, match="index basis needs a configuration"):
        oracle_nd(None, [0, 1, 2], 2)
    # an index outside [0, |A|) names no point; -1 must not wrap round, and
    # an entry that is not an int, such as a point, is no index
    A = PointConfiguration.from_points(OCTET, 2)
    for bad in ([0, 1, 8], [0, 1, -1], [0, 1, A.points[2]]):
        with pytest.raises(HypothesisViolation, match="basis index in range"):
            nd_verify(A, bad, 2)


def _imported_names(module) -> set[str]:
    """Modules (last dotted part) and names a package module imports."""
    tree = ast.parse(open(module.__file__, encoding="utf-8").read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rpartition(".")[2])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.rpartition(".")[2] for alias in node.names)
    return imported


def test_package_exports_resolve():
    # a stale name in __all__ breaks only `from ordcurves import *`
    missing = [name for name in ordcurves.__all__ if not hasattr(ordcurves, name)]
    assert not missing, missing
    namespace = {}
    exec("from ordcurves import *", namespace)
    assert set(ordcurves.__all__) <= namespace.keys()


def test_oracle_imports_no_fast_path_module():
    # the oracles re-derive results from the definitions; the fast path's
    # linear algebra, lifts, basis verifier and projection stay out of reach,
    # also through bipoly, where the oracle takes its radicals
    fast_path = {"linalg", "veronese", "ndfamilies", "projection"}
    for module, forbidden in ((ordcurves.oracle, fast_path),
                              (ordcurves.bipoly, fast_path | {"determined"})):
        imported = _imported_names(module)
        assert not imported & forbidden, (module.__name__, sorted(imported & forbidden))


@pytest.mark.parametrize("module, forbidden", [
    (ordcurves.ndfamilies, {"combinations"}),
    (ordcurves.projection, {"vector_to_curve", "squarefree_radical",
                            "Fraction", "fractions", "normalized",
                            "PlaneCurve", "poly_to_vector", "AffineFlat", "row_span"}),
    (ordcurves.determined, set()),
], ids=["ndfamilies", "projection", "determined"])
def test_row_layers_import_no_fraction_lift(module, forbidden):
    # the verifier, the grower, the projection and the span scan take points
    # as integer rows (integer_lift, homogeneous_lifts), span flats from those
    # rows and hold each hyperplane as its primitive integer vector; every
    # curve the projection emits is spanned, so it computes no radical; the
    # verifier and the grower walk flats, not subsets; the projection holds
    # catalog curves as the verifier's vectors and builds no flat object
    # (its one kernel, the center's, is counted in test_projection)
    fraction_path = {"lift", "flat_span", "HyperplaneForm", "tau", "tau_inverse"} | forbidden
    imported = _imported_names(module)
    assert not imported & fraction_path, sorted(imported & fraction_path)
    # a forbidden name no package module defines or imports checks nothing
    known = set()
    for info in pkgutil.iter_modules(ordcurves.__path__):
        if info.name == "__main__":
            continue
        package_module = importlib.import_module(f"ordcurves.{info.name}")
        known |= vars(package_module).keys() | _imported_names(package_module)
    assert fraction_path <= known, sorted(fraction_path - known)
