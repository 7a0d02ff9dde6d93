import hashlib
import json
import random
import sys
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from ordcurves import constructions
from ordcurves.constructions import (
    _SpanGuard,
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
from ordcurves.errors import HypothesisViolation, InvariantViolation
from ordcurves.linalg import affine_rank, rank
from ordcurves.veronese import integer_lift, lift


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


def test_theorem8_every_n_subset_on_at_most_one_curve():
    built = construct_theorem8(3, 9, 10, seed=4)
    cfg = built.config
    for idx in combinations(range(10), 9):
        assert vanishing_dim([cfg.points[i] for i in idx], 3) == 1


def test_theorem8_window_extensions_try_fresh_parameters(monkeypatch):
    # a guard that refuses 120 tries at 7 accepted points and 200 at 8
    # runs past the window twice; each extension starts one past the
    # largest parameter placed, so no parameter is tried twice
    refusals, tried = {7: 120, 8: 200}, []
    real = _SpanGuard.spans

    def spans(guard, z):
        accepted = len(guard.rows) + len(guard.pending)
        tried.append(tuple(z))
        if refusals.get(accepted):
            refusals[accepted] -= 1
            return True
        return real(guard, z)

    monkeypatch.setattr(_SpanGuard, "spans", spans)
    built = construct_theorem8(2, 5, 12, seed=12)
    assert len(built.config) == 12 and refusals == {7: 0, 8: 0}
    # past the 6m+9 = 81 window parameters and the first extension's 150
    assert len(set(tried)) == len(tried) > 81 + 150


def test_sample_grid():
    built = sample_configuration("grid", side=3, d=1)
    assert len(built.config) == 9
    assert (Fraction(2), Fraction(2)) in built.config.points


@pytest.mark.parametrize("side", [0, -2])
def test_sample_grid_without_points_is_refused(side):
    # only a missing side defaults to 3; side 0 asks for no points, as a
    # negative side does
    with pytest.raises(HypothesisViolation, match="nonempty configuration"):
        sample_configuration("grid", side=side, d=2)
    assert len(sample_configuration("grid", d=2).config) == 9


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


@pytest.mark.parametrize("unknown", ["span", "width", "height"])
def test_sample_refuses_inputs_it_does_not_read(unknown):
    # the samplers take their inputs by name, so one they do not read is
    # refused instead of ignored
    with pytest.raises(TypeError, match=unknown):
        sample_configuration("random_general", count=5, d=2, **{unknown: 10})


@pytest.mark.parametrize("genericity", [-1, -5])
def test_sample_random_general_refuses_negative_genericity(genericity, monkeypatch):
    # refused by name before any point is drawn, instead of recorded as the
    # certificate's degree
    def never(*args):
        raise AssertionError("refused before any sampling")

    monkeypatch.setattr(constructions, "_rand_point", never)
    with pytest.raises(HypothesisViolation) as exc:
        sample_configuration("random_general", seed=0, count=3, d=2, genericity=genericity)
    assert exc.value.name == "genericity >= 0"


def test_sample_random_general_requires_count():
    with pytest.raises(HypothesisViolation) as exc:
        sample_configuration("random_general", seed=1, d=2, genericity=2)
    assert exc.value.name == "random_general count given"


def _points_digest(built):
    points = [[str(x), str(y)] for x, y in built.config.points]
    return hashlib.sha256(json.dumps(points).encode()).hexdigest()


# sha256 of the point lists the subset-by-subset rank scan sampled: the
# sweep's seeds (size + 1 at sizes 8..14), the d=3 and d=2 basis sets and the
# benchmark's carrier-heavy sets
SAMPLER_DIGESTS = [
    ("random_general", dict(seed=9, count=8, d=2, genericity=2),
     "f59a26a7c644292cf844a939c752c7701e5f4d8b812b757e3f7130de8d0e6a30"),
    ("random_general", dict(seed=10, count=9, d=2, genericity=2),
     "29b4be3cedc964ff7a4def1201537fc2e21f570523e7c0cbe2f3d21c7d90e6bb"),
    ("random_general", dict(seed=11, count=10, d=2, genericity=2),
     "9516710502816480772992fe500f88763b9c6134c23ccec75818f7484af3bd07"),
    ("random_general", dict(seed=12, count=11, d=2, genericity=2),
     "190c4c232f483f1c47f19ff11419a69fec8dd074b4cf8ee152805a4a01f3e56a"),
    ("random_general", dict(seed=13, count=12, d=2, genericity=2),
     "ad02d58ed0e5a20003eb37f626bc932ba1be189098997ab767a346adefd71882"),
    ("random_general", dict(seed=14, count=13, d=2, genericity=2),
     "c6bf06f0abe92e4a9ecb14e5972f33e57195ad82d8525ad3e4e4cfdd5cb81827"),
    ("random_general", dict(seed=15, count=14, d=2, genericity=2),
     "5d1ccd5bfcc59c5abb6f0621cebb9c58e55b74efe0ef475b9633f171ac05cf3f"),
    ("random_general", dict(seed=3000, count=11, d=3, genericity=3),
     "ba8297d29487fccb5c72086d07dd0eaf2ddea54602a19c33248810463e5abb23"),
    ("random_general", dict(seed=3001, count=11, d=3, genericity=3),
     "d94f48b590fe4c6fdbde119593f976722508bc05a2476451ad567ce7d92ef4f5"),
    ("random_general", dict(seed=3002, count=11, d=3, genericity=3),
     "2255780ebbf5bc5843e24cd58f337e9f7dd45aadd27cd2bcf478e0144fee2d7d"),
    ("random_general", dict(seed=3003, count=11, d=3, genericity=3),
     "20bcdeb6a19f0fd01675d50e3edd6d559295b15d6499fdf917e7c40850395029"),
    ("random_general", dict(seed=4000, count=7, d=2, genericity=2),
     "b504b5832cec23bb303c9a135351d96b45faf62c3ccb64e9a30360fd022c0b57"),
    ("random_general", dict(seed=4001, count=7, d=2, genericity=2),
     "4cc6ff9688a2849de9aae5e66a9a66a4d9dbb0ba9428616a741c612c94a60d3b"),
    ("random_general", dict(seed=4002, count=7, d=2, genericity=2),
     "0390df713d186cf69aa7f6e8458d14fc30c227a057216ad8edf32afd2d98cfbe"),
    ("random_general", dict(seed=4003, count=7, d=2, genericity=2),
     "92a7deb7f6f7f25f4627d6dc2a9db6ef64dd6ac7bc09d83438defff30f89d2b7"),
    ("theorem8", dict(d=3, n=9, m=12, seed=11),
     "54dc0efdc2fa9eb974b5329780578f210b03edebff649eeab5c8c0353b794ad9"),
    ("theorem8", dict(d=3, n=9, m=12, seed=12),
     "f91a8205abb0c1f7ae76bf86695a9e725eadb49c028cab0a2c5139e45695e523"),
    ("theorem8", dict(d=3, n=9, m=12, seed=13),
     "e7c6891ba93251c8a64e49f24ac40bb3fb0d7ad34b4ffa7248eb1ecdbf6a5e91"),
    ("theorem8", dict(d=3, n=9, m=12, seed=14),
     "bee404a1235f28c922375cf7553962829df2f58b2d7ac29cde09eff0f133ef42"),
    ("theorem8", dict(d=2, n=5, m=9, seed=3),
     "be62cea143abaa974d7872874af10c2c863a0cacb544fae27a530cd5e6fdcb9e"),
]


@pytest.mark.parametrize("kind, params, expected", SAMPLER_DIGESTS,
                         ids=[f"{k}-{p['seed']}-{p.get('count', p.get('m'))}"
                              for k, p, _ in SAMPLER_DIGESTS])
def test_sampler_reproduces_recorded_point_lists(kind, params, expected):
    if kind == "theorem8":
        built = construct_theorem8(**params)
    else:
        built = sample_configuration(kind, **params)
    assert _points_digest(built) == expected


def test_span_guard_refuses_a_dependent_accepted_row():
    guard = _SpanGuard(3)
    for row in [(1, 0, 0), (0, 1, 0)]:
        assert not guard.spans(row)
        guard.accept(row)
    assert guard.spans((3, -2, 0)) and not guard.spans((1, 1, 1))
    # accepted without a test: (2, 0, 0) and (1, 0, 0) are a dependent pair
    guard.accept((2, 0, 0))
    with pytest.raises(InvariantViolation):
        guard.spans((1, 1, 1))


class _SubsetGuard:
    """The span guard by its definition: a row is refused when it lies in
    the span of some min(k, n_cols - 1) of the k accepted rows, tested by
    rank, subset by subset."""

    def __init__(self, n_cols):
        self.size = n_cols - 1
        self.rows = []

    def spans(self, z):
        return any(
            rank([*sub, z]) == rank(sub)
            for sub in combinations(self.rows, min(len(self.rows), self.size))
        )

    def accept(self, z):
        self.rows.append(z)


def _built_both_ways(monkeypatch, build):
    walked = build().to_json_obj()
    with monkeypatch.context() as patch:
        patch.setattr(constructions, "_SpanGuard", _SubsetGuard)
        by_subsets = build().to_json_obj()
    return walked, by_subsets


@pytest.mark.parametrize("g, count", [(1, 9), (2, 10), (3, 11)])
@pytest.mark.parametrize("seed", [0, 1, 5])
def test_random_sampler_guard_is_the_subset_test(monkeypatch, g, count, seed):
    walked, by_subsets = _built_both_ways(monkeypatch, lambda: sample_configuration(
        "random_general", seed=seed, count=count, d=g, genericity=g))
    assert walked == by_subsets


@pytest.mark.parametrize("d, m", [(1, 7), (2, 9), (3, 12), (4, 16)])
@pytest.mark.parametrize("seed", [0, 3, 4])
def test_carrier_guard_is_the_subset_test(monkeypatch, d, m, seed):
    N = comb(d + 2, 2) - 1
    walked, by_subsets = _built_both_ways(
        monkeypatch, lambda: construct_theorem8(d, N, m, seed=seed))
    assert walked == by_subsets
    # and in the full lift's columns every N-subset of carrier points is independent
    rows = [integer_lift((Fraction(x), Fraction(y)), d) for x, y in walked["points"][1:]]
    assert all(rank(sub) == N for sub in combinations(rows, N))


def _rational(rng, span, den):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


CURVES = {
    # a line, the unit circle and the cubic y = x^3 - x/2, each from a
    # rational parameter, so their points have non-integer coordinates
    1: lambda s: (s, (2 * s - 1) / 3),
    2: lambda s: ((1 - s * s) / (1 + s * s), 2 * s / (1 + s * s)),
    3: lambda s: (s, s ** 3 - s / 2),
}


def _mixing_line(s):
    return s, Fraction(1, 4) - 3 * s


def _level_stream(e, level, seed):
    """Candidate points for the degree-e guard, n = C(e+2, 2) columns, built
    so that one is refused with `level` later rows in its least spanning
    N-subset, N = n - 1: level + 1 points off the degree-e curve, then N + 1
    points on it, N - level of them in the basis, the last on the curve
    through the N before it, and one more.  The points off the curve start
    with up to e + 1 points of another line and end with generic ones.  At
    e <= 2 the points left of e + 2 on that line come last, e + 2 collinear
    points being dependent at every degree; at e = 3 the rows they add
    would take the subset reference seconds."""
    rng = random.Random(seed)
    n = comb(e + 2, 2)
    params = iter(rng.sample([Fraction(a, b) for a in range(-40, 41) for b in (1, 2, 3, 5)],
                             n + e + 4))
    on_line = [_mixing_line(next(params)) for _ in range(e + 2)]
    on_curve = [CURVES[e](next(params)) for _ in range(n + 1)]
    used = min(level + 1, e + 1)
    generic = [(_rational(rng, 60, 9), _rational(rng, 60, 9)) for _ in range(level + 1 - used)]
    return on_line[:used] + generic + on_curve + (on_line[used:] if e < 3 else [])


def _refusal_level(rows, z, n):
    """The least number of rows past the first n among the N-subsets of
    the accepted rows that span z, N = n - 1, by rank; None below n rows."""
    if len(rows) < n:
        return None
    return min(sum(i >= n for i in sub) for sub in combinations(range(len(rows)), n - 1)
               if rank([*(rows[i] for i in sub), z]) == n - 1)


def _run_both(e, points):
    """Each point's lift tested by `_SpanGuard` and `_SubsetGuard`, the
    two answers compared, and the point accepted by both when neither
    refuses it; the refusal levels seen."""
    n = comb(e + 2, 2)
    guard, reference = _SpanGuard(n), _SubsetGuard(n)
    levels = []
    for point in points:
        z = integer_lift(point, e)
        refused = guard.spans(z)
        assert refused == reference.spans(z), (point, len(reference.rows))
        if refused:
            levels.append(_refusal_level(reference.rows, z, n))
        else:
            guard.accept(z)
            reference.accept(z)
    return levels


@pytest.mark.parametrize("e, levels", [(1, range(3)), (2, range(6)), (3, range(3))])
def test_span_guard_answers_as_the_subset_test_row_by_row(e, levels):
    # every level |T| = 0..n-1 at e = 1 and 2; at e = 3 (n = 10) the
    # subset reference reaches |T| <= 2 in reasonable time.  Each stream
    # also runs in one seeded shuffle of its order
    seen = set()
    for level in levels:
        points = _level_stream(e, level, seed=100 * e + level)
        seen.update(_run_both(e, points))
        random.Random(level).shuffle(points)
        _run_both(e, points)
    assert set(levels) <= seen


def test_span_guard_reads_and_extends_the_cofactor_level():
    # at e = 1 (n = 3) the cofactor level holds the pairs of rows past the
    # basis: 14 generic points and three lines, two points of a line
    # accepted and each third refused, more than 2n accepted rows in all
    rng = random.Random(7)
    lines = [lambda s, a=a: (s, a * s + Fraction(1, a + 7)) for a in (2, -3, 5)]
    params = iter(rng.sample([Fraction(a, 7) for a in range(-200, 200)], 9))
    points = [(_rational(rng, 80, 11), _rational(rng, 80, 11)) for _ in range(14)]
    for k, line in enumerate(lines):
        points[4 * k + 3:4 * k + 3] = [line(next(params)) for _ in range(3)]
    levels = _run_both(1, points)
    assert len(levels) >= 3 and 2 in levels
    random.Random(8).shuffle(points)
    _run_both(1, points)


def test_span_guard_refuses_an_untested_dependent_row_past_the_basis():
    guard = _SpanGuard(3)
    rows = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3), (1, -1, 4)]
    for row in rows:
        assert not guard.spans(row)
        guard.accept(row)
    # an untested row off every span of two is kept without complaint
    guard.accept((2, 5, -7))
    assert guard.spans((1, 1, 0)) and not guard.spans((3, 1, 1))
    # (2, 1, 7) = (1, 2, 3) + (1, -1, 4) lies in the span of two later rows
    guard.accept((2, 1, 7))
    with pytest.raises(InvariantViolation):
        guard.spans((3, 1, 1))


def test_samplers_build_no_hyperplane(monkeypatch):
    from ordcurves import linalg

    def refuse(*args):
        raise AssertionError("hyperplane_leaves called")

    # under every name the package holds it by
    real = linalg.hyperplane_leaves
    for name, module in list(sys.modules.items()):
        if name.startswith("ordcurves") and getattr(module, "hyperplane_leaves", None) is real:
            monkeypatch.setattr(module, "hyperplane_leaves", refuse)
    sample_configuration("random_general", seed=3, count=14, d=3)
    construct_theorem8(3, 9, 12, seed=12)
    construct_theorem8(4, 14, 17, seed=0)
