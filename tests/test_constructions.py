from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from ordcurves.bipoly import PlaneCurve, parse_poly
from ordcurves.constructions import (
    construct_theorem6,
    construct_theorem8,
    default_carrier,
    sample_configuration,
)
from ordcurves.determined import (
    PointConfiguration,
    contained_in_curve,
    max_curve_richness,
    ordinary_curves,
    vanishing_dim,
)
from ordcurves.errors import HypothesisViolation
from ordcurves.linalg import affine_rank
from ordcurves.veronese import lift


def test_theorem6_shape_and_certificates():
    built = construct_theorem6(2, 7, seed=1)
    cfg = built.config
    assert len(cfg) == 7
    line_idx = built.provenance["line_indices"]
    block_idx = built.provenance["block_indices"]
    assert len(block_idx) == comb(3, 2) == 3
    assert all(cfg.points[i][1] == 0 for i in line_idx)
    assert all(cfg.points[i][1] != 0 for i in block_idx)
    assert not contained_in_curve(cfg, 2)[0]
    block = PointConfiguration.from_points([cfg.points[i] for i in block_idx], 1)
    assert not contained_in_curve(block, 1)[0]


def test_theorem6_hypothesis_errors():
    with pytest.raises(HypothesisViolation):
        construct_theorem6(1, 10)
    with pytest.raises(HypothesisViolation):
        construct_theorem6(2, 6)


def test_theorem6_ordinary_bound_and_traces():
    built = construct_theorem6(2, 7, seed=3)
    cfg = built.config
    ords = ordinary_curves(cfg, 5)
    assert len(ords) <= comb(7 - 3, 2)
    traces = []
    for rec in ords.records:
        tr = frozenset(i for i in rec.incidence if cfg.points[i][1] == 0)
        assert len(tr) == 2
        traces.append(tr)
    assert len(set(traces)) == len(traces)


def test_theorem8_shape():
    built = construct_theorem8(3, 9, 10, seed=2)
    cfg = built.config
    carrier = default_carrier(3)
    assert len(cfg) == 10
    off = cfg.points[built.provenance["off_index"]]
    assert not carrier.contains(off)
    carrier_idx = built.provenance["carrier_indices"]
    assert all(carrier.contains(cfg.points[i]) for i in carrier_idx)
    assert not contained_in_curve(cfg, 3)[0]
    # lifted general position in the carrier hyperplane: all 8-subsets of
    # carrier lifts are affinely independent
    lifts = [lift(cfg.points[i], 3) for i in carrier_idx]
    for idx in combinations(range(len(lifts)), 8):
        assert affine_rank([lifts[i] for i in idx]) == 8


def test_theorem8_hypothesis_errors():
    with pytest.raises(HypothesisViolation):
        construct_theorem8(3, 8, 12)
    with pytest.raises(HypothesisViolation):
        construct_theorem8(3, 9, 9)
    # the sweep places points (t, t^3): any other carrier is refused up front
    # instead of sweeping forever, and y = x^3 may be written in any scaling
    for text in ("y - x^3 + x", "x^2 + y^2 - 1"):
        with pytest.raises(HypothesisViolation, match=r"carrier y = x\^d"):
            construct_theorem8(3, 9, 10, carrier=PlaneCurve.from_poly(parse_poly(text)))
    scaled = PlaneCurve.from_poly(parse_poly("2*x^3 - 2*y"))
    assert construct_theorem8(3, 9, 10, carrier=scaled).config == construct_theorem8(3, 9, 10).config


def test_theorem8_every_n_subset_on_at_most_one_curve():
    built = construct_theorem8(3, 9, 10, seed=4)
    cfg = built.config
    for idx in combinations(range(10), 9):
        assert vanishing_dim([cfg.points[i] for i in idx], 3) == 1


def test_sample_grid():
    built = sample_configuration("grid", side=3, d=1)
    assert len(built.config) == 9
    assert (Fraction(2), Fraction(2)) in built.config.points


def test_sample_random_general_deterministic():
    a = sample_configuration("random_general", seed=5, count=8, d=2, genericity=2)
    b = sample_configuration("random_general", seed=5, count=8, d=2, genericity=2)
    assert a.config.points == b.config.points
    c = sample_configuration("random_general", seed=6, count=8, d=2, genericity=2)
    assert c.config.points != a.config.points


def test_sample_random_general_certificate():
    built = sample_configuration("random_general", seed=7, count=9, d=2, genericity=2)
    cfg = built.config
    # genericity 1: no three collinear
    assert max_curve_richness(cfg, 1)[0] == 2
    # genericity 2: every conic meets the set in at most 5 points
    assert max_curve_richness(cfg, 2)[0] == 5


def test_sample_unknown_kind():
    with pytest.raises(HypothesisViolation):
        sample_configuration("mystery", count=3)
