import gc
import os
import random
import sys
import weakref
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from math import comb
from operator import mul

import pytest

from ordcurves.bipoly import poly_gcd, squarefree_radical
from ordcurves.constructions import construct_theorem6, construct_theorem8, sample_configuration
from ordcurves.determined import (
    _DIRECT_BITS,
    PointConfiguration,
    _exact_str,
    contained_in_curve,
    default_regularity_threshold,
    enumerate_determined,
    max_curve_richness,
    ordinary_curves,
    regularity_report,
    richest,
    spanned_hyperplanes,
)
from ordcurves.errors import HypothesisViolation
from ordcurves.linalg import (
    hyperplane_leaves, kernel, normalized_key, prefix_kernels, primitive, rank, spanned_vectors,
)
from ordcurves.ndfamilies import grow_nd_chain
from ordcurves.oracle import oracle_determined, oracle_max_richness
from ordcurves.projection import curves_from_basis
from ordcurves.veronese import spanned_curve

from flats_reference import flats

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
    # the scan finds one hyperplane through every row (rank N), or none
    for points, d in [
        ([(0, 0), (1, 0), (2, 0)], 1),
        ([(0, 0), (1, 1)], 1),
        ([(0, 0), (1, 1), (-1, 1), (2, 4), (3, 9), (-2, 4)], 2),
        ([(0, 0), (1, 1), (2, 4)], 2),
    ]:
        config = PointConfiguration.from_points(points, d)
        with pytest.raises(HypothesisViolation) as err:
            enumerate_determined(config)
        assert err.value.name == "configuration not contained in a degree-<=d curve"
        assert err.value.detail == f"witness curve {contained_in_curve(config, d)[1]}"


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


def test_exact_str_matches_decimal():
    rng = random.Random(271)
    sizes = [_DIRECT_BITS + k for k in (-1, 0, 1, 2)] + [2 * _DIRECT_BITS + 1, 5 * _DIRECT_BITS + 7]
    numbers = [2**_DIRECT_BITS - 1, 2**_DIRECT_BITS, 2 ** (4 * _DIRECT_BITS), 0, 7]
    numbers += [rng.getrandbits(bits) | 1 << (bits - 1) for bits in sizes]
    for n in numbers:
        for q in (Fraction(n), Fraction(-n)):
            assert _exact_str(q) == str(Decimal(q.numerator))
        q = Fraction(-n - 1, rng.getrandbits(3 * _DIRECT_BITS) | 1)
        assert _exact_str(q) == f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"


def test_max_curve_richness_examples():
    assert max_curve_richness(PointConfiguration.from_points(SQUARE, 1), 1)[0] == 2
    size, witness = max_curve_richness(
        PointConfiguration.from_points(THREE_PLUS_ONE, 1), 1
    )
    assert size == 3 and set(witness) == {0, 1, 2}
    small = PointConfiguration.from_points(SQUARE, 2)
    assert max_curve_richness(small, 2)[0] == 4


def test_richest_witness_among_tied_sections():
    # the witness is the lexicographically first section of the top size,
    # wherever it comes among the sections; the eight 3-point lines of a
    # shuffled 3x3 grid tie at the top size
    assert richest([{7, 2}, {9, 4, 5}, {8, 1, 3}, {0, 6}]) == (3, (1, 3, 8))
    grid = [(x, y) for x in range(3) for y in range(3)]
    random.Random(5).shuffle(grid)
    config = PointConfiguration.from_points(grid, 1)
    lines = {frozenset(i for i, p in enumerate(grid) if _on_line(p, q, r))
             for q, r in combinations(grid, 2)}
    top = sorted(tuple(sorted(line)) for line in lines if len(line) == 3)
    assert len(top) == 8
    assert max_curve_richness(config, 1) == (3, top[0]) == oracle_max_richness(config, 1)
    assert regularity_report(config, 1, Fraction(1, 2)).witness == top[0]


def _on_line(p, q, r):
    return (q[0] - p[0]) * (r[1] - p[1]) == (q[1] - p[1]) * (r[0] - p[0])


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


@pytest.mark.parametrize("e", [0, -2, -3, -10])
def test_regularity_degree_refused_first(e):
    # below e = -2 the exponent 2^(3e+8) of the default threshold is not
    # an integer, so the degree is refused before the default is built
    with pytest.raises(HypothesisViolation, match="e >= 1"):
        regularity_report(PointConfiguration.from_points(SQUARE, 1), e)


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
    that the records carry the same pairs in `normalized` order, and that
    richness is the oracle's top-down scan's."""
    d = config.d
    rows = config.homogeneous_lifts(d)
    pairs = spanned_hyperplanes(config)
    for vec, incidence in pairs:
        assert incidence == {i for i, row in enumerate(rows) if sum(map(mul, vec, row)) == 0}
    if not contained_in_curve(config, d)[0]:
        records = enumerate_determined(config).records
        assert [(rec.hyperplanes[0], rec.incidence) for rec in records] == sorted(
            pairs, key=lambda pair: normalized_key(pair[0]))
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
    less than the row length).  Each vector maps to the rows it is
    orthogonal to, by a dot product with every row, in the order of first
    appearance over the subsets in lexicographic order; with the count of
    independent subsets."""
    n_cols = len(rows[0])
    vectors, full_rank = {}, 0
    for idx in combinations(range(len(rows)), n_cols - 1):
        basis = kernel([rows[i] for i in idx], n_cols)
        if len(basis) == 1:
            v = basis[0]
            if v not in vectors:
                vectors[v] = frozenset(
                    i for i, row in enumerate(rows) if not sum(map(mul, v, row)))
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
    assert _checked_scan(config) == expected.keys()
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
    assert _checked_scan(config) == expected.keys()
    assert _leaf_counts(rows) == [full_rank, full_rank]


def _dependent_rows(seed):
    """Small integer rows of 2 to 6 columns with forced dependencies: zero,
    repeated and proportional rows, integer combinations of earlier rows,
    and, for odd seeds, a tail of rows in the span of N - 1 or N fixed
    ones (N one less than the row length).  Each factor and each set of
    coefficients is drawn once per row.  Returns the rows and, for each
    forced row, the row with the rows it was built from."""
    rng = random.Random(seed)
    n_cols = rng.randint(2, 6)
    rows, forced = [], []
    while len(rows) < n_cols + 3:
        kind = rng.choice(["free", "free", "zero", "repeat", "multiple", "span"])
        if kind == "free" or not rows:
            rows.append(tuple(rng.randint(-3, 3) for _ in range(n_cols)))
            continue
        if kind == "zero":
            picks, coeffs = [], []
        elif kind == "repeat":
            picks, coeffs = [rng.choice(rows)], [1]
        elif kind == "multiple":
            picks, coeffs = [rng.choice(rows)], [rng.choice([-2, 2, 3])]
        else:
            picks = rng.sample(rows, min(len(rows), 3))
            coeffs = [rng.randint(-2, 2) for _ in picks]
        row = tuple(sum(k * r[c] for k, r in zip(coeffs, picks)) for c in range(n_cols))
        rows.append(row)
        forced.append((row, picks))
    if seed % 2:
        base = [[rng.randint(-3, 3) for _ in range(n_cols)] for _ in range(n_cols - rng.randint(1, 2))]
        for _ in range(rng.randint(n_cols - 1, n_cols + 1)):
            coeffs = [rng.randint(-1, 2) for _ in base]
            row = tuple(sum(k * b[c] for k, b in zip(coeffs, base)) for c in range(n_cols))
            rows.append(row)
            forced.append((row, base))
    return rows, forced


def test_spanned_vectors_match_subset_scan_on_dependent_rows():
    # a new vector's incidence comes from its leaf, the greedy basis of the
    # rows on its hyperplane: these rows put zero, repeated, proportional
    # and spanned rows before, between and after the rows of that basis,
    # and the low-rank tails leave first indices whose suffix has rank N
    for seed in range(30):
        rows, forced = _dependent_rows(seed)
        # each forced row lies in the span of the rows it was built from
        assert all(rank([row, *picks]) == rank(picks) for row, picks in forced), rows
        expected, _ = _bareiss_scan(rows)
        assert list(spanned_vectors(rows).items()) == list(expected.items()), rows


def _check_leaf_protocol(rows):
    """Each leaf (v, c, (j, dots, below)) of `hyperplane_leaves` against
    v's own dots with the rows: the later rows j + t with c.D_t = 0 are
    exactly the rows from j on that v is orthogonal to, and `below` lies on
    v's hyperplane; at the first leaf of each vector, over the first indices
    in order, the two together are every row on it, and so is the incidence
    `spanned_vectors` gives.  Returns the number of leaves."""
    ranks = [rank(rows[i:]) for i in range(len(rows))] + [0]
    first_leaf, leaves = {}, 0
    for first in range(len(rows)):
        for v, c, (j, dots, below) in hyperplane_leaves(rows, first, ranks):
            on = {r for r, row in enumerate(rows) if not sum(map(mul, v, row))}
            later = {j + t for t, dot in enumerate(dots) if not sum(map(mul, c, dot))}
            assert len(dots) == len(rows) - j
            assert later == {r for r in on if r >= j}, (rows, first)
            assert on.issuperset(below), (rows, first)
            first_leaf.setdefault(primitive(v), (on, later.union(below)))
            leaves += 1
    scanned = spanned_vectors(rows)
    assert scanned.keys() == first_leaf.keys()
    for v, (on, read) in first_leaf.items():
        assert read == on == scanned[v], (rows, v)
    return leaves


def test_each_leaf_reads_its_incidence_off_its_net():
    # N = 1 and N = 2 (the root is the net) among the dependent rows and
    # the lines through four points, then the line-heavy theorem6 set
    columns = set()
    for seed in range(30):
        rows, _ = _dependent_rows(seed)
        if _check_leaf_protocol(rows):
            columns.add(len(rows[0]))
    assert columns == {2, 3, 4, 5, 6}
    lines = PointConfiguration.from_points([(0, 0), (1, 0), (0, 1), (2, 3)], 1)
    assert _check_leaf_protocol(lines.homogeneous_lifts(1)) == 6
    config = construct_theorem6(2, 14).config
    assert _check_leaf_protocol(config.homogeneous_lifts(2))


def _tree_scan(rows):
    """`spanned_vectors` by the prefix tree alone, whatever the rows' shape:
    the reference for the scan in basis coordinates."""
    from ordcurves import linalg

    return linalg._leaf_vectors(rows, *linalg._suffix_ranks(rows))


def _coordinate_scans(monkeypatch):
    """The rows of every scan read in basis coordinates."""
    from ordcurves import linalg

    calls = []
    real = linalg._coordinate_vectors

    def counted(rows, basis):
        calls.append(rows)
        return real(rows, basis)

    monkeypatch.setattr(linalg, "_coordinate_vectors", counted)
    return calls


def _near_square_rows(seed, s, deficiency):
    """n + s integer rows of n = 2 to 6 columns and rank n - deficiency:
    that many independent rows, with zero, repeated, proportional and
    spanned rows, and at full rank free ones, each put before, between or
    after the rows placed so far."""
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    r = max(n - deficiency, 0)
    base = []
    while len(base) < r:
        row = tuple(rng.randint(-3, 3) for _ in range(n))
        if rank([*base, row]) > len(base):
            base.append(row)
    rows = list(base)
    kinds = ["zero", "repeat", "multiple", "span"] + ["free"] * (deficiency == 0)
    while len(rows) < n + s:
        kind = rng.choice(kinds) if base else "zero"
        if kind == "zero":
            row = (0,) * n
        elif kind == "repeat":
            row = rng.choice(base)
        elif kind == "multiple":
            k = rng.choice([-2, 2, 3])
            row = tuple(k * x for x in rng.choice(base))
        elif kind == "span":
            coeffs = {b: rng.randint(-2, 2) for b in rng.sample(base, min(len(base), 3))}
            row = tuple(sum(k * b[c] for b, k in coeffs.items()) for c in range(n))
        else:
            row = tuple(rng.randint(-3, 3) for _ in range(n))
        rows.insert(rng.choice([0, rng.randint(0, len(rows)), len(rows)]), row)
    return rows


@pytest.mark.parametrize("deficiency", [0, 1, 2], ids=["rank-n", "rank-N", "below-N"])
@pytest.mark.parametrize("s", [0, 1, 2])
def test_coordinate_scan_matches_tree_on_near_square_rows(monkeypatch, s, deficiency):
    # rows of n >= 4 columns with at most two more rows than columns are
    # read in the coordinates of one basis when they span, and any other
    # rows walk the prefix tree: either way the same map, in the same
    # order, as the tree and as the subset-by-subset scan
    calls = _coordinate_scans(monkeypatch)
    coordinate = 0
    for seed in range(12):
        rows = _near_square_rows(1000 * s + 100 * deficiency + seed, s, deficiency)
        assert rank(rows) == max(len(rows[0]) - deficiency, 0)
        got = list(spanned_vectors(rows).items())
        assert got == list(_tree_scan(rows).items()), rows
        assert got == list(_bareiss_scan(rows)[0].items()), rows
        coordinate += deficiency == 0 and len(rows[0]) > 3
    assert len(calls) == coordinate
    assert coordinate or deficiency


@pytest.mark.parametrize("d", [3, 4, 5])
def test_coordinate_scan_matches_tree_on_carrier_heavy_sets(monkeypatch, d):
    # theorem8 at m = N+1..N+3: 0 to 2 rows beyond the C(d+2,2) columns
    calls = _coordinate_scans(monkeypatch)
    N = comb(d + 2, 2) - 1
    for m in range(N + 1, N + 4):
        rows = construct_theorem8(d, N, m, seed=m).config.homogeneous_lifts(d)
        got = list(spanned_vectors(rows).items())
        assert got == list(_tree_scan(rows).items())
        if d == 3:
            assert got == list(_bareiss_scan(rows)[0].items())
    assert len(calls) == 3


def test_coordinate_scan_matches_tree_on_grid_subsets(monkeypatch):
    # every 6-, 7- and 8-subset of the 3x3 grid at d=2: those on a conic
    # (two of the grid's lines, say) do not span and walk the tree
    calls = _coordinate_scans(monkeypatch)
    grid = [(x, y) for x in range(3) for y in range(3)]
    spanning = 0
    for size in (6, 7, 8):
        for idx in combinations(range(9), size):
            rows = PointConfiguration.from_points([grid[i] for i in idx], 2).homogeneous_lifts(2)
            got = list(spanned_vectors(rows).items())
            assert got == list(_tree_scan(rows).items()), idx
            assert got == list(_bareiss_scan(rows)[0].items()), idx
            spanning += rank(rows) == 6
    assert 0 < len(calls) == spanning < 84 + 36 + 9


def test_rows_three_beyond_their_columns_or_of_three_columns_walk_the_tree(monkeypatch):
    # in basis coordinates a subset's kernel is the cross product of at most
    # two coordinate rows, so only rows at most two beyond their columns are
    # read there: theorem8 at d=3, m=12 is, and m=13 walks the prefix tree;
    # so do rows of three columns, whose tree steps no level past its root
    calls = _coordinate_scans(monkeypatch)
    lines = PointConfiguration.from_points([(0, 0), (1, 0), (0, 1), (2, 3)], 1)
    for rows, coordinate in [
        (construct_theorem8(3, 9, 12, seed=12).config.homogeneous_lifts(3), 1),
        (construct_theorem8(3, 9, 13, seed=13).config.homogeneous_lifts(3), 0),
        (lines.homogeneous_lifts(1), 0),
    ]:
        calls.clear()
        assert list(spanned_vectors(rows).items()) == list(_tree_scan(rows).items())
        assert len(calls) == coordinate


def _carrier_tail(seed, d, free, on_curve, tail_last):
    """Points of height up to 10^6: `free` random ones and `on_curve` on a
    rational conic (d = 2) or cubic (d = 3), the curve's points last when
    `tail_last`, first otherwise."""
    rng = random.Random(seed)
    on = sorted(_on_curve_points(rng, {2: "conic", 3: "cubic"}[d], on_curve))
    free_pts = [(_rational(rng), _rational(rng)) for _ in range(free)]
    pts = free_pts + on if tail_last else on + free_pts
    return PointConfiguration.from_points(pts, d)


@pytest.mark.parametrize("build, rank_n", [
    (lambda: construct_theorem8(3, 9, 11, seed=11).config, 2),
    (lambda: _carrier_tail(400, 2, 3, 6, True), 2),
    (lambda: _carrier_tail(401, 2, 3, 6, False), 1),
    (lambda: _carrier_tail(402, 3, 1, 10, True), 2),
    (lambda: _carrier_tail(403, 3, 2, 9, False), 1),
], ids=["theorem8-d3", "conic-last-e2", "conic-first-e2", "cubic-last-d3", "cubic-first-d3"])
def test_carrier_tails_match_oracle(build, rank_n):
    config = build()
    d = config.d
    rows = config.homogeneous_lifts(d)
    n_cols = len(rows[0])
    # the scan walks no first index whose suffix has rank N: the carrier's
    # own rows when they come last, the last N rows when they come first
    ranks = [rank(rows[i:]) for i in range(len(rows))]
    assert ranks[0] == n_cols and ranks.count(n_cols - 1) == rank_n
    expected, _ = _bareiss_scan(rows)
    assert list(spanned_vectors(rows).items()) == list(expected.items())
    records = enumerate_determined(config).records
    assert frozenset(rec.curve.radical for rec in records) == oracle_determined(config)
    for rec in records:
        assert rec.incidence == config.incidence_of(rec.curve)
    _checked_scan(config)


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
    # the scan stepped 151,727 times when it walked every independent
    # prefix, and 1,310 times when it also walked the first indices whose
    # suffix has rank N, which give only the fold's one hyperplane
    config = construct_theorem6(4, 21, seed=21).config
    steps = _count_steps(monkeypatch)
    assert len(spanned_hyperplanes(config)) == 340
    assert len(steps) == 1182


def test_carrier_heavy_scan_skips_the_rank_n_suffixes(monkeypatch):
    # theorem8 at d=3, m=12: the carrier's 11 rows come last, and first
    # indices 1..3 have suffixes of rank N = 9; walking them took 341 steps,
    # and the prefix tree from index 0 alone 222.  The rows span with two
    # more than their 10 columns, so the scan reads every 9-subset in the
    # coordinates of one basis: the rank fold's 12 steps and the 9 of the
    # dual basis's prefix nodes (10 when its elimination also stepped the
    # last basis row), and no net
    from ordcurves import linalg

    config = construct_theorem8(3, 9, 12, seed=12).config
    steps = _count_steps(monkeypatch)
    walks = []
    real = linalg.hyperplane_leaves
    monkeypatch.setattr(linalg, "hyperplane_leaves", lambda *a: walks.append(a) or real(*a))
    assert len(spanned_hyperplanes(config)) == 166
    assert len(steps) == 21
    assert walks == []


def test_sweep_steps_below_the_nets_only(monkeypatch):
    # the seed-1 sweep at d=2, |A| = 8..12: the samplers' guards and the
    # scans stepped 1,908 + 1,256 times when both eliminated down to one
    # level above their leaves, and 850 times while the enumeration folded
    # the lifts once more for containment (30) and the scans walked the
    # first indices whose suffix has rank N (15); 805 when the |A| = 8 scan
    # still walked its prefix tree (37 steps), 780 since those 8 rows in 6
    # columns are read in basis coordinates (12: the fold's and the dual
    # basis's).  479 since the guards step only below n rows, 2 + 5 per
    # sample at n = 3 and 6 columns, and their one dual elimination at the
    # n-th row reads those prefix nodes and steps nothing (335 -> 35); the
    # scans' dual basis steps its n - 1 prefixes, not n (445 -> 444)
    steps = _count_steps(monkeypatch)
    for size in range(8, 13):
        built = sample_configuration("random_general", seed=1 + size, count=size, d=2,
                                     genericity=2)
        enumerate_determined(built.config)
    assert len(steps) == 479
