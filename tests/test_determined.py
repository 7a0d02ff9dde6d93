import gc
import os
import random
import sys
import weakref
from fractions import Fraction
from itertools import combinations
from math import comb
from operator import mul

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
    spanned_hyperplanes,
)
from ordcurves.errors import HypothesisViolation
from ordcurves.linalg import (
    flats, hyperplane_leaves, kernel, prefix_kernels, primitive, rank, spanned_vectors,
)
from ordcurves.ndfamilies import grow_nd_chain
from ordcurves.oracle import oracle_determined, oracle_max_richness
from ordcurves.projection import curves_from_basis
from ordcurves.veronese import spanned_curve

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
    for e, vec in state.catalog:
        curve = spanned_curve(vec, e)
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


@pytest.mark.parametrize("points, e, found", [
    ([(0, 0), (1, 1), (-1, 1), (2, 4), (3, 9)], 2, 1),
    ([(0, 0), (1, 2), (3, 6)], 1, 1),
    ([(0, 0), (1, 0), (0, 1), (2, 3)], 2, 0),
], ids=["conic-rank-N", "line-rank-N", "below-rank-N"])
def test_richness_of_a_set_on_one_curve(points, e, found):
    # rows of rank N give the one hyperplane through every row without a
    # walk; rows of rank below N give no hyperplane at all
    config = PointConfiguration.from_points(points, e)
    rows = config.homogeneous_lifts(e)
    vectors = spanned_vectors(rows)
    assert len(vectors) == found
    assert all(incidence == set(range(len(points))) for incidence in vectors.values())
    assert max_curve_richness(config, e) == oracle_max_richness(config, e)
    assert max_curve_richness(config, e) == (len(points), tuple(range(len(points))))


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
    serial = ordinary_curves(config, len(OCTET), workers=1)
    ignored = ordinary_curves(config, len(OCTET), workers=2)
    assert serial.to_json_obj() == ignored.to_json_obj()


@pytest.mark.parametrize("build", [
    lambda: construct_theorem6(2, 14, seed=14).config,
    lambda: PointConfiguration.from_points(sample_configuration(
        "random_general", seed=3000, count=12, d=3, genericity=3).config.points, 3),
], ids=["theorem6-d2-m14", "random-general-d3-12"])
def test_pooled_subtrees_match_serial(build, monkeypatch):
    # workers=2 gives the serial records and starts no process
    import concurrent.futures

    def no_process(*args, **kwargs):
        raise AssertionError("the scan started a process")

    config = build()
    serial = ordinary_curves(config, len(config), workers=1)
    monkeypatch.setattr(os, "fork", no_process)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_process)
    pooled = ordinary_curves(config, len(config), workers=2)
    assert len(serial) > 0
    assert serial.records == pooled.records


def test_deterministic_output_order():
    config = PointConfiguration.from_points(OCTET, 2)
    a = enumerate_determined(config).to_json_obj()
    b = enumerate_determined(config).to_json_obj()
    assert a == b


def _checked_scan(config):
    """The scan's vectors, after checking that each hyperplane's incidence
    is its vector's zero rows by an independent evaluation at every row,
    that the records carry the same pairs, and that richness is the
    oracle's top-down scan's."""
    d = config.d
    rows = config.homogeneous_lifts(d)
    pairs = spanned_hyperplanes(config)
    for vec, incidence in pairs:
        assert incidence == {i for i, row in enumerate(rows) if sum(map(mul, vec, row)) == 0}
    if not contained_in_curve(config, d)[0]:
        records = enumerate_determined(config).records
        assert [(rec.hyperplanes[0], rec.incidence) for rec in records] == pairs
    assert max_curve_richness(config, d) == oracle_max_richness(config, d)
    return {vec for vec, _ in pairs}


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
    _checked_scan(config)


def _on_curve_points(rng, curve, k):
    """k distinct points of height up to 10^6 on one rational line, one
    parabola y = a x^2 + b x + c (a conic) or one cubic y = q(x)."""
    coeffs = [_rational(rng) for _ in range(4)]
    (px, py), (qx, qy) = [(_rational(rng), _rational(rng)) for _ in range(2)]
    pts = set()
    while len(pts) < k:
        t = _rational(rng, 1000)
        if curve == "line":
            pts.add((px + t * (qx - px), py + t * (qy - py)))
        else:
            degree = {"conic": 2, "cubic": 3}[curve]
            pts.add((t, sum(c * t**i for i, c in enumerate(coeffs[:degree + 1]))))
    return pts


def _adversarial_set(seed, curve, k, free):
    rng = random.Random(seed)
    pts = _on_curve_points(rng, curve, k)
    while len(pts) < k + free:
        pts.add((_rational(rng), _rational(rng)))
    return sorted(pts)


def _bareiss_scan(rows):
    """The subset-by-subset scan: every N-subset's own `kernel` (checked
    against Gauss-Jordan in test_linalg), kept when it is one vector (N one
    less than the row length)."""
    n_cols = len(rows[0])
    vectors, full_rank = set(), 0
    for idx in combinations(range(len(rows)), n_cols - 1):
        basis = kernel([rows[i] for i in idx], n_cols)
        if len(basis) == 1:
            vectors.add(basis[0])
            full_rank += 1
    return vectors, full_rank


def _leaf_counts(rows):
    """The leaves `hyperplane_leaves` yields over every first index, walked
    with no ranks and with the suffix ranks."""
    ranks = [rank(rows[i:]) for i in range(len(rows))] + [0]
    return [
        sum(1 for first in range(len(rows)) for _ in hyperplane_leaves(rows, first, r))
        for r in (None, ranks)
    ]


@pytest.mark.parametrize("d, curve, k, free", [
    (1, "line", 4, 3),
    (1, "conic", 5, 2),
    (2, "line", 5, 4),
    (2, "conic", 7, 3),
    (2, "cubic", 6, 3),
    (3, "line", 6, 5),
    (3, "conic", 8, 3),
    (3, "cubic", 10, 2),
])
def test_prefix_tree_matches_bareiss_scan(d, curve, k, free):
    config = PointConfiguration.from_points(_adversarial_set(200 + d + k, curve, k, free), d)
    assert any(p[0].denominator > 1 for p in config.points)
    rows = config.homogeneous_lifts(d)
    expected, full_rank = _bareiss_scan(rows)
    assert _checked_scan(config) == expected
    # one leaf per independent subset: none lost, no dependent one kept
    assert _leaf_counts(rows) == [full_rank, full_rank]


def _closure_scan(rows, n_cols):
    """Every subset's closure, the rows orthogonal to its `kernel`,
    mapped to the kernel of the closure's rows."""
    out = {}
    for size in range(len(rows) + 1):
        for idx in combinations(range(len(rows)), size):
            basis = kernel([rows[i] for i in idx], n_cols)
            closure = tuple(
                j for j, row in enumerate(rows)
                if all(sum(map(mul, k, row)) == 0 for k in basis)
            )
            if closure not in out:
                out[closure] = kernel([rows[j] for j in closure], n_cols)
    return out


@pytest.mark.parametrize("e", [1, 2, 3])
@pytest.mark.parametrize("curve, k, free", [("line", 5, 4), ("conic", 8, 1), ("cubic", 10, 0)])
def test_flats_match_closure_scan(e, curve, k, free):
    pts = _adversarial_set(300 + 10 * e + k, curve, k, free)
    rows = PointConfiguration.from_points(pts, e).homogeneous_lifts(e)
    n_cols = comb(e + 2, 2)
    every = _closure_scan(rows, n_cols)
    for max_rank in (n_cols - 1, n_cols):
        found = flats(rows, n_cols, max_rank)
        # each basis is immutable, a tuple of tuples
        assert all(
            type(basis) is tuple and all(type(k) is tuple for k in basis)
            for basis in found.values()
        )
        # each basis is the kernel of its closure's rows once made primitive
        walked = {key: [primitive(k) for k in basis] for key, basis in found.items()}
        # a closure has its subset's rank, n_cols less the kernel's size
        assert walked == {
            key: basis for key, basis in every.items() if n_cols - len(basis) <= max_rank
        }
        assert all(list(key) == sorted(key) for key in walked)
    # degree-e curves cut a vector space of this dimension on the curve, so
    # its k points form a dependent flat when that is below C(e+2,2)
    on_curve = {"line": e + 1, "conic": 2 * e + 1, "cubic": 3 * e}[curve]
    if on_curve < n_cols:
        assert any(len(key) + len(basis) > n_cols for key, basis in walked.items() if basis)


@pytest.mark.parametrize("e", [1, 2, 3])
@pytest.mark.parametrize("curve, k, free", [("line", 5, 4), ("conic", 8, 1), ("cubic", 10, 0)])
def test_prefix_kernels_match_kernel_on_flat_complements(e, curve, k, free):
    pts = _adversarial_set(300 + 10 * e + k, curve, k, free)
    rows = PointConfiguration.from_points(pts, e).homogeneous_lifts(e)
    n_cols = comb(e + 2, 2)
    node = prefix_kernels(rows, n_cols)
    dependent = 0
    for closure in flats(rows, n_cols, n_cols):
        rest = tuple(j for j in range(len(rows)) if j not in closure)
        sub = [rows[j] for j in rest]
        basis, _ = node(rest)
        # the node reached through shared prefixes is the slow path's kernel
        assert [primitive(v) for v in basis] == kernel(sub, n_cols)
        assert n_cols - len(basis) - 1 == rank(sub) - 1
        dependent += rank(sub) < len(sub)
    assert dependent  # some complements hold dependent rows


def _dependent_prefix(rows, size):
    """Whether some index subset smaller than `size` is already dependent,
    so the prefix tree skips a whole subtree."""
    return any(
        rank([rows[i] for i in idx]) < j
        for j in range(2, size) for idx in combinations(range(len(rows)), j)
    )


@pytest.mark.parametrize("build, d", [
    (lambda: construct_theorem6(2, 9, seed=4).config, 2),
    (lambda: PointConfiguration.from_points(
        [(x, 2 * x + 1) for x in range(6)] + [(0, 7), (3, -2), (5, 9), (-4, 6), (7, 3)], 3), 3),
], ids=["theorem6-d2", "d3-six-collinear"])
def test_prefix_tree_prunes_and_stays_exact(build, d):
    config = build()
    rows = config.homogeneous_lifts(d)
    n_cols = len(rows[0])
    expected, full_rank = _bareiss_scan(rows)
    assert full_rank < comb(len(rows), n_cols - 1)
    assert _dependent_prefix(rows, n_cols - 1)
    assert _checked_scan(config) == expected
    assert _leaf_counts(rows) == [full_rank, full_rank]


def test_pruned_enumeration_matches_oracle():
    config = construct_theorem6(2, 7, seed=2).config
    result = enumerate_determined(config)
    assert frozenset(rec.curve.radical for rec in result.records) == oracle_determined(config)
    assert len(result) == len(oracle_determined(config))
    _checked_scan(config)


def _scan_in_order(config, perm):
    """(vector, incidence) of every record of `enumerate_determined` on the
    points taken in the order perm, incidences mapped back to the given
    indices."""
    permuted = PointConfiguration.from_points([config.points[i] for i in perm], config.d)
    return {
        (rec.hyperplanes[0], frozenset(perm[i] for i in rec.incidence))
        for rec in enumerate_determined(permuted).records
    }


def _orders(n, seed):
    shuffled = list(range(n))
    random.Random(seed).shuffle(shuffled)
    return [list(range(n)), list(range(n - 1, -1, -1)), shuffled]


@pytest.mark.parametrize("build", [
    lambda: construct_theorem6(2, 9, seed=4).config,
    lambda: construct_theorem6(3, 12, seed=12).config,
    lambda: PointConfiguration.from_points(_adversarial_set(207, "line", 5, 4), 2),
    lambda: PointConfiguration.from_points(_adversarial_set(209, "conic", 7, 3), 2),
    lambda: PointConfiguration.from_points(_adversarial_set(208, "cubic", 6, 3), 2),
], ids=["theorem6-d2", "theorem6-d3", "line-d2", "conic-d2", "cubic-d2"])
def test_scan_does_not_depend_on_row_order(build):
    # the suffix-rank bound prunes more when the low-rank rows come last, so
    # its strength depends on the order; the scan's output must not
    config = build()
    expected = {
        (curve, frozenset(i for i, p in enumerate(config.points) if curve.evaluate(p) == 0))
        for curve in oracle_determined(config)
    }
    for perm in _orders(len(config), len(config)):
        got = _scan_in_order(config, perm)
        assert {(spanned_curve(vec, config.d).radical, inc) for vec, inc in got} == expected


def test_line_heavy_d4_scan_does_not_depend_on_row_order():
    config = construct_theorem6(4, 21, seed=21).config
    given, _, shuffled = _orders(len(config), 21)
    expected = _scan_in_order(config, given)
    assert len(expected) == 340
    assert _scan_in_order(config, shuffled) == expected


def _count_steps(monkeypatch):
    """Every `kernel_step` call, under every name the package holds it by."""
    from ordcurves import linalg

    calls = []
    real = linalg.kernel_step

    def counted(node, row):
        calls.append(None)
        return real(node, row)

    for name, module in list(sys.modules.items()):
        if name.startswith("ordcurves") and getattr(module, "kernel_step", None) is real:
            monkeypatch.setattr(module, "kernel_step", counted)
    return calls


def test_line_heavy_scan_skips_what_cannot_complete(monkeypatch):
    # theorem6 at d=4, m=21: 4,950 independent 14-subsets give 340 curves;
    # the scan stepped 151,727 times when it walked every independent prefix
    config = construct_theorem6(4, 21, seed=21).config
    steps = _count_steps(monkeypatch)
    assert len(spanned_hyperplanes(config)) == 340
    assert len(steps) == 1310


def test_sweep_steps_below_the_nets_only(monkeypatch):
    # the seed-1 sweep at d=2, |A| = 8..12: the samplers' guards and the
    # scans stepped 1,908 + 1,256 times when both eliminated down to one
    # level above their leaves
    steps = _count_steps(monkeypatch)
    for size in range(8, 13):
        built = sample_configuration("random_general", seed=1 + size, count=size, d=2,
                                     genericity=2)
        enumerate_determined(built.config)
    assert len(steps) == 850
