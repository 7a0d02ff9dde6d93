import random
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordcurves.constructions import sample_configuration
from ordcurves.linalg import (
    affine_rank,
    equation_rows,
    flat_span,
    flats,
    flats_root,
    flats_step,
    kernel,
    kernel_root,
    kernel_step,
    normalized,
    normalized_key,
    nullspace,
    prefix_kernels,
    primitive,
    rank,
    row_span,
    vec_dot,
)
from ordcurves.ndfamilies import grow_nd_chain
from ordcurves.oracle import _gauss, _monomials_upto, _row, _vanishing_basis
from ordcurves.veronese import integer_lift

rationals = st.fractions(
    min_value=-6, max_value=6, max_denominator=5
)


def matrices(max_rows=5, max_cols=5):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(rationals, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )


def test_rank_identity():
    assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3


def test_rank_repeated_rows():
    assert rank([[1, 2], [1, 2]]) == 1


def test_rank_dependent_row():
    assert rank([[1, 0], [0, 1], [1, 1]]) == 2


def test_rank_empty():
    assert rank([]) == 0


def test_rank_zero_entry_under_first_pivot():
    # a row with a zero below the first pivot still needs that pivot's scaling
    assert rank([[2, 0, 1], [0, 1, 0], [0, 0, 1]]) == 3
    assert affine_rank([(0, 0, 0), (2, 1, 0), (0, 1, 0), (0, 0, 1)]) == 4


def _sparse_matrix(rng, n_rows, n_cols):
    return [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n_cols)]
            for _ in range(n_rows)]


def _gauss_nullspace(rows, n_cols=None):
    """Nullspace basis by the oracle's Gauss-Jordan, first nonzero entries 1;
    n_cols is needed for a matrix with no rows."""
    if rows:
        n_cols = len(rows[0])
    _, reduced, pivots = _gauss([[Fraction(x) for x in row] for row in rows])
    basis = []
    for free in (c for c in range(n_cols) if c not in pivots):
        v = [Fraction(0)] * n_cols
        v[free] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][free]
        first = next(x for x in v if x)
        basis.append(tuple(x / first for x in v))
    return basis


def _oracle_matrices():
    """(rows, column count): random matrices, wide (0-7 x 10) and tall
    (11-16 x 10) ones, and ones with entries up to 10^6."""
    rng = random.Random(11)
    for _ in range(400):
        n_cols = rng.randint(1, 7)
        yield _sparse_matrix(rng, rng.randint(1, 7), n_cols), n_cols
    for n_rows in (*range(8), *range(11, 17)):
        for _ in range(6):
            yield _sparse_matrix(rng, n_rows, 10), 10
            yield _deficient_rows(rng, n_rows, 10), 10
    for _ in range(40):
        n_rows, n_cols = rng.randint(1, 8), rng.randint(1, 8)
        yield [[rng.choice((0, rng.randint(-10**6, 10**6))) for _ in range(n_cols)]
               for _ in range(n_rows)], n_cols


def _deficient_rows(rng, n_rows, n_cols):
    """Integer combinations of at most 4 base rows, some with zero columns."""
    zero = rng.sample(range(n_cols), rng.randint(0, 3))
    base = [[0 if j in zero else rng.randint(-9, 9) for j in range(n_cols)]
            for _ in range(rng.randint(1, 4))]
    return [[sum(c * b[j] for c, b in zip(coeffs, base)) for j in range(n_cols)]
            for coeffs in ([rng.randint(-2, 2) for _ in base] for _ in range(n_rows))]


def test_rank_matches_gauss_jordan():
    # rank and kernel against the oracle's Gauss-Jordan, on the wide and
    # tall shapes the spans use, and on the rows' Fraction halves
    for rows, n_cols in _oracle_matrices():
        expected = [primitive(v) for v in _gauss_nullspace(rows, n_cols)]
        oracle_rank = _gauss([[Fraction(x) for x in row] for row in rows])[0]
        halves = [[Fraction(x, 2) for x in row] for row in rows]
        for matrix in (rows, halves):
            assert rank(matrix) == oracle_rank, rows
            assert kernel(matrix, n_cols) == expected, rows


def test_ragged_rows_raise():
    # a row whose length is not the column count is refused, not truncated
    with pytest.raises(ValueError):
        kernel([[1, 2, 3]], 2)
    with pytest.raises(ValueError):
        rank([[1, 2], [3]])
    with pytest.raises(ValueError):
        nullspace([[1, 2], [3]])
    with pytest.raises(ValueError):
        kernel([[1, 2], [Fraction(1, 2)]], 2)


def _deficient_matrix(rng, k):
    """k x (k+1) integer matrix of rank < k: rows combine k - 1 base rows."""
    base = [[rng.randint(-6, 6) for _ in range(k + 1)] for _ in range(k - 1)]
    out = []
    for _ in range(k):
        coeffs = [rng.randint(-2, 2) for _ in base]
        out.append([sum(c * b[j] for c, b in zip(coeffs, base)) for j in range(k + 1)])
    return out


def _fold(rows):
    """The kernel node of the rows, one `kernel_step` each; None once a row
    reduces to zero."""
    node = kernel_root(len(rows[0]))
    for row in rows:
        node = kernel_step(node, row)
        if node is None:
            return None
    return node


def _leaf_vector(rows):
    """The primitive kernel vector of a k x (k+1) matrix folded row by row,
    or None when a row reduces to zero."""
    node = _fold(rows)
    if node is None:
        return None
    (v,) = node[0]
    return primitive(v)


def test_kernel_step_matches_nullspace():
    rng = random.Random(5)
    for k in range(2, 10):
        full = 0
        for trial in range(40):
            if trial % 2:
                rows = _sparse_matrix(rng, k, k + 1)
            else:
                rows = [[rng.randint(-10**6, 10**6) for _ in range(k + 1)] for _ in range(k)]
            node = _fold(rows)
            basis = _gauss_nullspace(rows)
            if len(basis) != 1:
                assert node is None, rows
                continue
            full += 1
            (w,) = basis
            ((raw,), pivot) = node
            # the leaf vector is integral, holds the last pivot on its free column
            assert all(isinstance(x, int) for x in raw) and pivot in raw
            assert all(sum(a * b for a, b in zip(row, raw)) == 0 for row in rows)
            v = _leaf_vector(rows)
            assert gcd(*v) == 1
            first = next(x for x in v if x != 0)
            assert first > 0
            assert tuple(Fraction(x, first) for x in v) == w
        assert full >= 20


def test_kernel_step_rank_deficient_is_none():
    rng = random.Random(6)
    for k in range(2, 10):
        for _ in range(10):
            assert _fold(_deficient_matrix(rng, k)) is None
    assert _fold([[0, 0, 0], [1, 2, 3]]) is None
    assert _fold([[1, 2, 3], [2, 4, 6]]) is None


def test_kernel_step_examples():
    assert _leaf_vector([[1, 1]]) == (1, -1)
    assert _leaf_vector([[0, 2]]) == (1, 0)
    # free column in the middle, and a kernel that needs the sign flip
    assert _leaf_vector([[1, 0, 0], [0, 0, 1]]) == (0, 1, 0)
    assert _leaf_vector([[2, 4, 0], [0, 0, 3]]) == (2, -1, 0)
    # a full-rank square matrix leaves an empty basis, which spans every row
    node = _fold([[1, 2], [3, 4]])
    assert node[0] == []
    assert kernel_step(node, [5, 7]) is None


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_invariant_under_row_ops(rows):
    rng = random.Random(7)
    base = rank(rows)
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert rank(shuffled) == base
    scaled = [[Fraction(3, 2) * x for x in row] for row in rows]
    assert rank(scaled) == base


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_nullspace_vectors_annihilate(rows):
    basis = nullspace(rows)
    n_cols = len(rows[0])
    assert len(basis) == n_cols - rank(rows)
    for v in basis:
        assert all(vec_dot(row, v) == 0 for row in rows)
        first = next(x for x in v if x != 0)
        assert first == 1


def test_nullspace_line():
    basis = nullspace([[1, 1]])
    assert len(basis) == 1
    # spec normalizes to first nonzero = 1; the documented vector (-1, 1)
    # is the same line
    assert basis[0] == (Fraction(1), Fraction(-1))


def test_nullspace_full_rank_square():
    assert nullspace([[1, 0], [0, 1]]) == []


def test_nullspace_zero_matrix():
    basis = nullspace([[0, 0, 0], [0, 0, 0]])
    assert len(basis) == 3


def test_flat_span_empty():
    f = flat_span([], 4)
    assert f.dim == -1 and f.is_empty


def test_flat_span_triangle():
    assert flat_span([(0, 0), (1, 0), (0, 1)]).dim == 2


def test_flat_span_collinear_direction():
    f = flat_span([(0, 0), (1, 1), (2, 2)])
    assert f.dim == 1
    assert f.contains((Fraction(-7, 3), Fraction(-7, 3))) and f.contains((5, 5))
    assert not f.contains((1, 2)) and not f.contains((1, 0))


def test_flat_membership_examples():
    f = flat_span([(0, 0), (1, 1)])
    assert f.contains((2, 2))
    assert not f.contains((1, 0))
    assert not flat_span([], 2).contains((1, 0))


def test_flat_membership_dimension_mismatch():
    f = flat_span([(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        f.contains((1, 1, 1))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(rationals, rationals, rationals), min_size=0, max_size=6))
def test_flat_monotone_dimensions(points):
    for cut in range(len(points) + 1):
        sub = flat_span(points[:cut], 3)
        full = flat_span(points, 3)
        assert sub.dim <= full.dim
        assert sub.dim <= cut - 1


def test_row_span_joins_points():
    f = flat_span([(0, 0, 0)])
    g = row_span(3, [*f.rows, (1, 1, 0, 0), (1, 0, 1, 0)])
    assert g.dim == 2
    assert g.contains((1, 1, 0)) and not g.contains((0, 0, 1))


def test_flat_equations_roundtrip():
    pts = [(1, 2, 3), (2, 3, 4), (1, 1, 1)]
    f = flat_span(pts)
    eqs = f.normals
    assert len(eqs) == 3 - f.dim
    for c0, *c in eqs:
        for p in pts:
            assert c0 + sum(a * b for a, b in zip(c, p)) == 0
    g = row_span(3, equation_rows(3, eqs))
    assert g.dim == f.dim
    probe = [(0, 1, 2), (5, 5, 5), (1, 2, 3)]
    for p in probe:
        assert f.contains(p) == g.contains(p)


def test_flat_from_inconsistent_equations():
    f = row_span(2, equation_rows(2, [(0, 1, 0), (1, 1, 0)]))
    assert f.is_empty


def test_affine_rank():
    assert affine_rank([(0, 0), (1, 0), (0, 1)]) == 3
    assert affine_rank([(0, 0), (1, 1), (2, 2)]) == 2
    assert affine_rank([]) == 0


def test_flat_intersection():
    # two flats meet in the flat cut out by both equation systems
    def meet(a, b):
        return row_span(a.ambient_dim, equation_rows(a.ambient_dim, a.normals + b.normals))

    xy_plane = flat_span([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    diag = flat_span([(0, 0, 0), (1, 1, 1)])
    point = meet(xy_plane, diag)
    assert point.dim == 0 and point.contains((0, 0, 0))
    line1 = flat_span([(0, 0), (1, 1)])
    line2 = flat_span([(0, 1), (1, 2)])  # parallel shifted copy
    assert meet(line1, line2).is_empty
    # the empty flat's normals are all of Z^3, (1, 0, 0) among them
    empty = flat_span([], 2)
    assert row_span(2, equation_rows(2, empty.normals)).is_empty
    assert meet(line1, empty).is_empty
    same = meet(line1, line1)
    assert same.dim == 1 and same.contains((5, 5))
    assert same == line1


def test_kernel_zero_and_empty():
    assert kernel([[0, 0, 0], [0, 0, 0]], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert kernel([], 2) == [(1, 0), (0, 1)]
    assert kernel([], 0) == []
    assert kernel([[1, 2], [3, 4]], 2) == []
    assert kernel([[Fraction(1, 2), Fraction(1, 3)]], 2) == [(2, -3)]


def test_kernel_rank_deficient():
    rng = random.Random(8)
    for k in range(2, 9):
        for _ in range(10):
            rows = _deficient_matrix(rng, k)
            basis = kernel(rows, k + 1)
            assert len(basis) == k + 1 - rank(rows) >= 2
            for v in basis:
                assert all(isinstance(x, int) for x in v)
                assert gcd(*v) == 1 and next(x for x in v if x) > 0
                assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)
            scaled = [tuple(Fraction(x, next(y for y in v if y)) for x in v) for v in basis]
            assert scaled == _gauss_nullspace(rows) == nullspace(rows)


def test_kernel_matches_vanishing_basis():
    # the oracle solves "degree <= e vanishes on the points" with its own
    # rows and Gauss-Jordan; its monomial order is the lift's
    rng = random.Random(9)
    for e in (1, 2, 3):
        mons = _monomials_upto(e)
        for count in range(0, len(mons) + 2):
            pts = [(Fraction(rng.randint(-9, 9), rng.randint(1, 4)), rng.randint(-5, 5))
                   for _ in range(count)]
            _, expected = _vanishing_basis(pts, e)
            expected = [tuple(x / next(y for y in v if y) for x in v) for v in expected]
            assert nullspace([integer_lift(p, e) for p in pts], len(mons)) == expected
            assert nullspace([_row(p, mons) for p in pts], len(mons)) == expected


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(rationals, rationals, rationals), min_size=0, max_size=5),
    st.tuples(rationals, rationals, rationals),
    st.lists(rationals, min_size=5, max_size=5),
)
def test_flat_contains_matches_affine_rank(points, z, weights):
    f = flat_span(points, 3)
    inside = bool(points) and affine_rank(points + [z]) == affine_rank(points)
    assert f.contains(z) == inside
    if points:
        # an affine combination of the spanning points lies in the flat
        w = weights[: len(points) - 1]
        w.append(1 - sum(w))
        combo = tuple(sum(wi * p[j] for wi, p in zip(w, points)) for j in range(3))
        assert f.contains(combo)


def test_normalized_key_matches_fraction_order():
    # primitive vectors with zero leading entries, equal ratios in front and
    # large entries; the integer key must give the order of the Fraction forms
    rng = random.Random(7)
    vectors = set()
    while len(vectors) < 400:
        vec = [rng.choice([0, 0, 1, -1, 2, 3, -5, 10**9 + 7]) * rng.randint(1, 4) for _ in range(6)]
        if any(vec):
            vectors.add(primitive(vec))
    # second entries whose ratios differ by less than 2^-64
    big = 10**30
    vectors |= {(big, 1, 0), (big + 1, 1, 0), (big, 1, 1), (big, -1, 0), (big + 1, -1, 0)}
    vectors = list(vectors)
    assert sorted(vectors, key=normalized_key) == sorted(vectors, key=normalized)


def _big(rng):
    return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))


def _heavy_points(seed, curve, k, free):
    """k points of height up to 10^6 on one rational line, parabola (a
    conic) or cubic y = q(x), then `free` random points, shuffled so the
    curve's points are spread through the row order."""
    rng = random.Random(seed)
    degree = {"line": 1, "conic": 2, "cubic": 3}[curve]
    coeffs = [_big(rng) for _ in range(degree + 1)]
    pts = set()
    while len(pts) < k:
        t = _big(rng)
        pts.add((t, sum(c * t**i for i, c in enumerate(coeffs))))
    while len(pts) < k + free:
        pts.add((_big(rng), _big(rng)))
    pts = sorted(pts)
    rng.shuffle(pts)
    return pts


def walk_bases(walk: dict, n_cols: int) -> dict:
    """The `flats` map of a `flats_step` walk: each closure to its basis
    without the carried dots, as a tuple of tuples."""
    return {
        closure: tuple(tuple(k[:n_cols]) for k in basis)
        for closure, (basis, _, _) in walk.items()
    }


def _assert_fold_matches_flats(rows, co_rows, n_cols, co_cols):
    """At every prefix of the rows, the `flats_step` fold is `flats` with
    max_rank the column count, with the same raw bases; its flats with a
    nonempty basis, the realizable sections, are those of `flats` with
    max_rank one less; and each flat's co-node is the `prefix_kernels` node
    of its complement's co-rows."""
    co_node = prefix_kernels(co_rows, co_cols)
    walk = flats_root(n_cols, co_cols)
    for m, (row, co_row) in enumerate(zip(rows, co_rows)):
        walk = flats_step(walk, m, row, co_row)
        got = walk_bases(walk, n_cols)
        assert got == flats(rows[:m + 1], n_cols, n_cols)
        below = flats(rows[:m + 1], n_cols, n_cols - 1)
        assert {c: b for c, b in got.items() if b} == {c: b for c, b in below.items() if b}
        for closure, (_, _, node) in walk.items():
            assert node == co_node(tuple(j for j in range(m + 1) if j not in closure))


@pytest.mark.parametrize("e", [1, 2, 3])
@pytest.mark.parametrize("curve, k, free", [("line", 5, 4), ("conic", 7, 2), ("cubic", 10, 0)])
def test_flats_fold_matches_flats(e, curve, k, free):
    pts = _heavy_points(500 + 10 * e + k, curve, k, free)
    assert any(x.denominator > 1 for p in pts for x in p)
    rows = [integer_lift(p, e) for p in pts]
    co_rows = [integer_lift(p, 4 - e) for p in pts]
    _assert_fold_matches_flats(rows, co_rows, comb(e + 2, 2), comb(4 - e + 2, 2))


def test_flats_fold_matches_flats_on_grown_d4_chain():
    A = sample_configuration("random_general", seed=3000, count=14, d=4, genericity=4).config
    res = grow_nd_chain(A, [], None, 4, seed=0)
    assert res.success
    for e in range(1, 4):
        rows = [A.homogeneous_lifts(e)[i] for i in res.chain]
        co_rows = [A.homogeneous_lifts(4 - e)[i] for i in res.chain]
        _assert_fold_matches_flats(rows, co_rows, comb(e + 2, 2), comb(4 - e + 2, 2))
