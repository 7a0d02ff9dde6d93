import ast
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

import ordcurves.oracle
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


def test_oracle_imports_no_fast_path_module():
    # the oracles re-derive results from the definitions; the fast path's
    # linear algebra, lifts, basis verifier and projection stay out of reach
    fast_path = {"linalg", "veronese", "ndfamilies", "projection"}
    tree = ast.parse(open(ordcurves.oracle.__file__, encoding="utf-8").read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            imported.add(module.rpartition(".")[2])
            if module in ("", "ordcurves"):
                imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.rpartition(".")[2] for alias in node.names)
    assert not imported & fast_path, sorted(imported & fast_path)
