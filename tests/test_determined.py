import gc
import random
import weakref
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from ordcurves.bipoly import poly_gcd, squarefree_radical
from ordcurves.constructions import construct_theorem6, construct_theorem8, sample_configuration
from ordcurves.determined import (
    PointConfiguration,
    contained_in_curve,
    default_regularity_threshold,
    enumerate_determined,
    max_curve_richness,
    ordinary_curves,
    regularity_report,
)
from ordcurves.errors import HypothesisViolation
from ordcurves.ndfamilies import grow_nd_chain
from ordcurves.oracle import oracle_determined
from ordcurves.projection import curves_from_basis

SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]
THREE_PLUS_ONE = [(0, 0), (1, 0), (2, 0), (0, 1)]
OCTET = [(0, 0), (1, 0), (0, 1), (3, 5), (2, 7), (5, 1), (1, 4), (6, 2)]


def brute_force_lines(points):
    """All lines through >= 2 points with their incidences, by pair scan."""
    seen = {}
    for i, j in combinations(range(len(points)), 2):
        (x1, y1), (x2, y2) = points[i], points[j]
        a, b = y2 - y1, x1 - x2
        c = -(a * x1 + b * y1)
        vec = (a, b, c)
        first = next(v for v in vec if v != 0)
        key = tuple(Fraction(v) / first for v in vec)
        if key not in seen:
            seen[key] = frozenset(
                k
                for k, (x, y) in enumerate(points)
                if key[0] * x + key[1] * y + key[2] == 0
            )
    return set(seen.values())


def test_contained_in_curve():
    collinear = PointConfiguration.from_points([(0, 0), (1, 0), (2, 0)], 1)
    flag, witness = contained_in_curve(collinear, 1)
    assert flag and witness.radical.terms
    assert all(witness.contains(p) for p in collinear.points)
    square = PointConfiguration.from_points(SQUARE, 1)
    assert not contained_in_curve(square, 1)[0]
    # any small set lies on a curve of degree <= e
    small = PointConfiguration.from_points(SQUARE, 2)
    assert contained_in_curve(small, 2)[0]


def test_enumerate_determined_matches_pair_bruteforce():
    for pts in (SQUARE, THREE_PLUS_ONE, OCTET):
        config = PointConfiguration.from_points(pts, 1)
        got = enumerate_determined(config)
        assert {rec.incidence for rec in got.records} == brute_force_lines(config.points)


def test_enumerate_determined_examples():
    square = enumerate_determined(PointConfiguration.from_points(SQUARE, 1))
    assert len(square) == 6
    assert all(len(rec.incidence) == 2 for rec in square.records)
    tpo = enumerate_determined(PointConfiguration.from_points(THREE_PLUS_ONE, 1))
    assert len(tpo) == 4
    assert sorted(len(rec.incidence) for rec in tpo.records) == [2, 2, 2, 3]


def test_enumerate_determined_precondition():
    collinear = PointConfiguration.from_points([(0, 0), (1, 0), (2, 0)], 1)
    with pytest.raises(HypothesisViolation):
        enumerate_determined(collinear)


def test_ordinary_examples():
    octet = PointConfiguration.from_points(OCTET, 2)
    assert len(ordinary_curves(octet, comb(4, 2) - 2)) == 0  # n below C(d+2,2)-1
    assert len(ordinary_curves(PointConfiguration.from_points(SQUARE, 1), 2)) == 6
    assert len(ordinary_curves(PointConfiguration.from_points(THREE_PLUS_ONE, 1), 2)) == 3


def test_every_determined_curve_is_rich_enough(check_hyperplanes):
    for d, pts in ((1, OCTET), (2, OCTET)):
        config = PointConfiguration.from_points(pts, d)
        for rec in enumerate_determined(config).records:
            assert len(rec.incidence) >= comb(d + 2, 2) - 1
            assert len(rec.hyperplanes) <= d**d
            check_hyperplanes(rec, config.points, d)


@pytest.mark.parametrize("build", [
    lambda: construct_theorem6(2, 9),
    lambda: construct_theorem6(2, 14),
    lambda: construct_theorem6(3, 13),
    lambda: construct_theorem8(3, 9, 12),
    lambda: sample_configuration("grid", side=4, d=2),
    lambda: sample_configuration("random_general", seed=3000, count=11, d=3, genericity=3),
], ids=["theorem6-d2-m9", "theorem6-d2-m14", "theorem6-d3-m13", "theorem8-d3-m12", "grid4-d2",
        "random_general-d3"])
def test_spanned_hyperplane_is_its_own_radical(build, check_hyperplanes):
    # every emitted curve spans a one-dimensional vanishing space, so its
    # polynomial is squarefree (veronese.spanned_curve): the determined
    # curves, the pipeline's curves from a grown basis and its catalog each
    # equal their PRS radical, with one hyperplane per record
    config = build().config
    d = config.d
    determined = enumerate_determined(config)
    assert determined.records
    grown = grow_nd_chain(config, [], None, d, seed=0)
    assert grown.success
    curves, state = curves_from_basis(config, list(grown.chain), d)
    for rec in determined.records + curves.records:
        check_hyperplanes(rec, config.points, d)
    for _, curve in state.catalog:
        assert curve.representative == curve.radical == squarefree_radical(curve.representative)


def test_row_cache_is_per_instance():
    config = PointConfiguration.from_points(SQUARE, 1)
    rows = config.homogeneous_lifts(2)
    assert config.homogeneous_lifts(2) is rows
    ref = weakref.ref(config)
    del config
    gc.collect()
    assert ref() is None


def test_bezout_sanity_on_enumerated_pairs():
    config = PointConfiguration.from_points(OCTET, 2)
    records = enumerate_determined(config).records
    for r1, r2 in combinations(records, 2):
        if poly_gcd(r1.curve.radical, r2.curve.radical).is_constant:
            assert len(r1.incidence & r2.incidence) <= 4


def test_sylvester_gallai_on_random_sets():
    rng = random.Random(2)
    for _ in range(10):
        pts = set()
        while len(pts) < 6:
            pts.add((rng.randint(-10, 10), rng.randint(-10, 10)))
        config = PointConfiguration.from_points(sorted(pts), 1)
        if contained_in_curve(config, 1)[0]:
            continue
        assert len(ordinary_curves(config, 2)) > 0


def test_max_curve_richness_examples():
    assert max_curve_richness(PointConfiguration.from_points(SQUARE, 1), 1)[0] == 2
    size, witness = max_curve_richness(
        PointConfiguration.from_points(THREE_PLUS_ONE, 1), 1
    )
    assert size == 3 and set(witness) == {0, 1, 2}
    small = PointConfiguration.from_points(SQUARE, 2)
    assert max_curve_richness(small, 2)[0] == 4


def test_regularity_report():
    square = PointConfiguration.from_points(SQUARE, 1)
    default = regularity_report(square, 1)
    assert not default.is_regular
    assert default.threshold == default_regularity_threshold(1)
    loose = regularity_report(square, 1, Fraction(3, 4))
    assert loose.is_regular and loose.ratio == Fraction(1, 2)
    tpo = PointConfiguration.from_points(THREE_PLUS_ONE, 1)
    tight = regularity_report(tpo, 1, Fraction(1, 2))
    assert not tight.is_regular and tight.ratio == Fraction(3, 4)


def test_regularity_threshold_positive():
    with pytest.raises(HypothesisViolation):
        regularity_report(PointConfiguration.from_points(SQUARE, 1), 1, Fraction(0))


def test_enumeration_independent_of_workers():
    config = PointConfiguration.from_points(OCTET, 2)
    serial = enumerate_determined(config, workers=1)
    parallel = enumerate_determined(config, workers=2)
    assert serial.to_json_obj() == parallel.to_json_obj()


def test_deterministic_output_order():
    config = PointConfiguration.from_points(OCTET, 2)
    a = enumerate_determined(config).to_json_obj()
    b = enumerate_determined(config).to_json_obj()
    assert a == b


def _rational(rng, height=10**6):
    return Fraction(rng.randint(-height, height), rng.randint(1, height))


def _structured_set(seed, on_line, on_parabola, free):
    """Non-integer points of height up to 10^6: some on one rational line,
    some on one rational parabola y = a x^2 + b x + c, the rest random."""
    rng = random.Random(seed)
    pts = set()
    (px, py), (qx, qy) = [(_rational(rng), _rational(rng)) for _ in range(2)]
    while len(pts) < on_line:
        t = _rational(rng, 1000)
        pts.add((px + t * (qx - px), py + t * (qy - py)))
    a, b, c = _rational(rng, 1000), _rational(rng), _rational(rng)
    while len(pts) < on_line + on_parabola:
        x = _rational(rng, 1000)
        pts.add((x, a * x * x + b * x + c))
    while len(pts) < on_line + on_parabola + free:
        pts.add((_rational(rng), _rational(rng)))
    return sorted(pts)


@pytest.mark.parametrize("d, on_line, on_parabola, free", [
    (1, 4, 0, 3),
    (2, 4, 3, 2),
    (3, 5, 4, 2),
])
def test_enumeration_matches_oracle_on_large_heights(d, on_line, on_parabola, free):
    config = PointConfiguration.from_points(
        _structured_set(100 + d, on_line, on_parabola, free), d)
    assert any(p[0].denominator > 1 for p in config.points)
    assert not contained_in_curve(config, d)[0]
    result = enumerate_determined(config)
    expected = oracle_determined(config)
    assert frozenset(rec.curve.radical for rec in result.records) == expected
    assert len(result) == len(expected)
    for rec in result.records:
        assert rec.incidence == config.incidence_of(rec.curve)
    assert max(len(rec.incidence) for rec in result.records) >= on_line
