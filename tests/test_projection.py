import json
import random
from fractions import Fraction
from itertools import combinations
from math import comb
from operator import mul
from pathlib import Path

import pytest

from ordcurves.bipoly import PlaneCurve, parse_poly, rational_points_on_curve
from ordcurves.constructions import sample_configuration
from ordcurves.determined import PointConfiguration, ordinary_curves
from ordcurves.errors import HypothesisViolation
from ordcurves.linalg import _integer_row, flat_span, kernel, normalized_key, primitive, row_span
from ordcurves.ndfamilies import grow_nd_chain
from ordcurves.projection import (
    build_pipeline,
    curve_lift_rows,
    curves_from_basis,
    exceptional_catalog,
    find_affine_chart,
    line_through,
    two_point_lines,
)
from ordcurves.projection import HyperprojectionMap
from ordcurves.veronese import ambient_dim, integer_lift, lift, poly_to_vector, spanned_curve

GOLDEN = Path(__file__).resolve().parent / "golden"

OCTET = [(0, 0), (1, 0), (0, 1), (3, 5), (2, 7), (5, 1), (1, 4), (6, 2)]
TRIPLE = [(0, 0), (1, 0), (0, 1)]


def make_projector():
    center = flat_span([lift(p, 2) for p in TRIPLE], ambient_dim(2))
    return HyperprojectionMap.from_flat(center)


def test_projection_collapses_flat_lines():
    pm = make_projector()
    center = pm.center
    z = lift((4, 7), 2)
    assert not center.contains(z)
    image = pm.project_row(_integer_row((1, *z)))
    # points of Fl(center + {z}) off the center share the image
    joined = row_span(center.ambient_dim, [*center.rows, integer_lift((4, 7), 2)])
    a, b = lift(TRIPLE[0], 2), lift(TRIPLE[1], 2)
    half = tuple(Fraction(1, 2) * (x + y) for x, y in zip(z, a))
    mixed = tuple(h + y - x for h, x, y in zip(half, a, b))
    for w in (half, mixed):
        assert joined.contains(w) and not center.contains(w)
        assert pm.project_row(_integer_row((1, *w))) == image
    # the conics through TRIPLE and (4, 7) meet only in those four points,
    # so a fifth point spans another flat with the center
    other = lift((5, 5), 2)
    assert not center.contains(other)
    assert pm.project_row(_integer_row((1, *other))) != image


def test_projection_of_rows_matches_points():
    # built from its fields, as the exported constructor allows
    pm = HyperprojectionMap(make_projector().center, make_projector().forms)
    for p in [(4, 7), (Fraction(1, 2), Fraction(-5, 3)), (-2, 9)]:
        row = integer_lift(p, 2)
        image = pm.project_row(_integer_row((1, *lift(p, 2))))
        assert pm.project_row(row) == image
        assert pm.project_row(tuple(-3 * x for x in row)) == image


def test_projection_rejects_center_points():
    pm = make_projector()
    with pytest.raises(HypothesisViolation):
        pm.project_row(_integer_row((1, *lift(TRIPLE[0], 2))))


def test_projection_requires_codim3():
    small = flat_span([lift(p, 2) for p in TRIPLE[:2]], ambient_dim(2))
    with pytest.raises(HypothesisViolation):
        HyperprojectionMap.from_flat(small)


def test_curve_lift_flat_dimensions():
    line = poly_to_vector(parse_poly("x + y - 1"), 1)
    for d in (1, 2, 3):
        flat = row_span(ambient_dim(d), curve_lift_rows(1, line, d))
        assert flat.dim == ambient_dim(d) - comb(d - 1 + 2, 2)
        for t in range(-3, 4):
            assert flat.contains(lift((t, 1 - t), d))
    conic = poly_to_vector(parse_poly("y - x^2"), 2)
    flat = row_span(ambient_dim(3), curve_lift_rows(2, conic, 3))
    assert flat.dim == ambient_dim(3) - comb(3, 2)
    for t in range(-3, 4):
        assert flat.contains(lift((t, t * t), 3))


def test_exceptional_catalog_triple():
    A = PointConfiguration.from_points(OCTET, 2)
    catalog = exceptional_catalog(A, [0, 1, 2], 2)
    assert len(catalog) == 3
    curves = [spanned_curve(vec, e) for e, vec in catalog]
    assert all(e == 1 and vec == primitive(vec) for e, vec in catalog)
    assert all(curve.degree == 1 for curve in curves)
    # each catalog line passes through exactly two basis points
    for curve in curves:
        assert sum(1 for p in TRIPLE if curve.contains(p)) == 2
    assert len(catalog) < 2 ** (2 ** 4)


SCALED_TRIPLE = [(-2, 4), (4, 2), (6, -2)]
FRACTION_TRIPLE = [(Fraction(1, 2), 0), (0, Fraction(1, 3)), (Fraction(3, 2), Fraction(5, 4))]
HANDCRAFTED_D3 = [(0, 0), (1, 0), (3, 0), (0, 1), (2, 3), (5, 2), (1, 6)]
HANDCRAFTED_EXTRAS = (
    [(7, 0), (4, 0), (6, 5), (8, 3), (-2, 7), (9, -4), (-5, -3)],
    [(6, 0), (-3, 0), (7, 4), (8, -2), (-4, 6), (9, 5), (-6, -5)],
)


def _catalog_by_definition(A, basis, d):
    """For each e < d, (e, vector) for every (cut-1)-subset of B whose
    degree-e kernel is one primitive vector vanishing on no other row of B."""
    out = []
    for e in range(1, d):
        rows = [integer_lift(A.points[i], e) for i in basis]
        size = comb(d + 2, 2) - comb(d - e + 2, 2) - 1
        for idx in combinations(range(len(basis)), size):
            vecs = kernel([rows[i] for i in idx], comb(e + 2, 2))
            if len(vecs) != 1:
                continue
            zeros = {i for i, row in enumerate(rows) if sum(map(mul, vecs[0], row)) == 0}
            if zeros == set(idx):
                out.append((e, vecs[0]))
    return sorted(out, key=lambda pair: (pair[0], normalized_key(pair[1])))


def _catalog_cases():
    """(A, B, catalog size): the three lines through two points of the
    octet's triple and of two more d=2 triples, whose sections' kernel
    vectors come out of the flats walk with a content above 1 or a negative
    first entry; the two lines through three points of the handcrafted
    bases; none on the carrier golden basis or a grown one."""
    carrier = json.loads((GOLDEN / "carrier_points.json").read_text())
    carrier_pts = [tuple(map(Fraction, p)) for p in carrier["points"]]
    built = sample_configuration("random_general", seed=3000, count=11, d=3, genericity=3)
    grown = grow_nd_chain(built.config, [], None, 3, seed=0)
    assert grown.success
    cases = [
        (PointConfiguration.from_points(triple + OCTET[3:], 2), [0, 1, 2], 3)
        for triple in (TRIPLE, SCALED_TRIPLE, FRACTION_TRIPLE)
    ]
    cases += [
        (PointConfiguration.from_points(HANDCRAFTED_D3 + extras, 3), list(range(7)), 2)
        for extras in HANDCRAFTED_EXTRAS
    ]
    cases += [
        (PointConfiguration.from_points(carrier_pts, 3), [15, 1, 10, 9, 5, 3, 4], 0),
        (built.config, list(grown.chain), 0),
    ]
    return cases


def test_exceptional_catalog_matches_section_bruteforce():
    for A, basis, size in _catalog_cases():
        catalog = exceptional_catalog(A, basis, A.d)
        assert list(catalog) == _catalog_by_definition(A, basis, A.d)
        assert len(catalog) == size


def _point_span(curve: PlaneCurve, d: int):
    """Span of the degree-d lifts of C(d+2,2) points of the curve."""
    points = rational_points_on_curve(curve, comb(d + 2, 2))
    return row_span(ambient_dim(d), [integer_lift(p, d) for p in points])


def test_curve_lift_flat_matches_point_span():
    # the shifted vector rows cut out the span of the curve's lifted points:
    # curves linear in y (lines, y = x^2, y = x^3) and one linear in x
    texts = ["x + y - 1", "y - 2", "x - 3", "2*x - 3*y + 1", "y - x^2", "y - x^3",
             "x - y^2 - y"]
    checked = 0
    for text in texts:
        p = parse_poly(text)
        curve, e = PlaneCurve.from_poly(p), p.degree
        for d in range(e, 5):
            flat = row_span(ambient_dim(d), curve_lift_rows(e, poly_to_vector(p, e), d))
            assert flat == _point_span(curve, d)
            checked += 1
    # the catalog vectors of the d=2 triples and the handcrafted bases (none
    # on the carrier and grown ones)
    for A, basis, _ in _catalog_cases():
        for e, vec in exceptional_catalog(A, basis, A.d):
            for d in range(e, 5):
                flat = row_span(ambient_dim(d), curve_lift_rows(e, vec, d))
                assert flat == _point_span(spanned_curve(vec, e), d)
                checked += 1
    assert checked == 24 + 13 * 4
    assert (row_span(ambient_dim(3), curve_lift_rows(1, (0, 1, 0), 3))
            != row_span(ambient_dim(3), curve_lift_rows(1, (0, 0, 1), 3)))


def test_build_pipeline_d2_classification():
    A = PointConfiguration.from_points(OCTET, 2)
    state = build_pipeline(A, [0, 1, 2], 2)
    assert set(state.trace) >= {"D_A", "E_A", "S", "T", "delta", "n"}
    # the basis is inside its own span
    assert {0, 1, 2} <= set(state.d_indices)
    assert state.delta + len(state.d_indices) <= 4
    assert state.n == 2 * state.delta + len(state.d_indices)
    # forbidden images stay disjoint from surviving images
    assert not set(state.s_points) & set(state.t_points)


def test_pipeline_exceptional_points_share_image():
    # load extra points onto the line through two basis points: they must be
    # exceptional and their images must match the line's single image point
    base = [(0, 0), (1, 0), (0, 1)]
    extra_on_line = [(3, 0), (7, 0)]  # on y = 0 through (0,0), (1,0)
    rng = random.Random(3)
    filler = []
    while len(filler) < 3:
        cand = (rng.randint(2, 9), rng.randint(1, 9))
        if cand not in filler and cand not in extra_on_line:
            filler.append(cand)
    pts = base + extra_on_line + filler
    A = PointConfiguration.from_points(pts, 2)
    state = build_pipeline(A, [0, 1, 2], 2)
    on_line_idx = {3, 4}
    assert on_line_idx <= set(state.e_indices)
    images = {
        state.projector.project_row(_integer_row((1, *lift(A.points[i], 2))))
        for i in on_line_idx
    }
    assert len(images) == 1
    assert images <= set(state.t_points)
    curves, state = curves_from_basis(A, [0, 1, 2], 2, state=state)
    assert state.trace["filtered"] == 0
    for rec in curves.records:
        assert {0, 1, 2} <= rec.incidence
        assert len(rec.incidence) <= state.n


def _join_cases():
    """(A, B) for the golden d=3 basis, the handcrafted bases and the d=2
    triples, all but the golden one with exceptional lines."""
    golden = json.loads((GOLDEN / "points.json").read_text())
    golden_pts = [tuple(map(Fraction, p)) for p in golden["points"]]
    yield PointConfiguration.from_points(golden_pts, 3), [7, 8, 1, 5, 3, 4, 9]
    for extras in HANDCRAFTED_EXTRAS:
        yield PointConfiguration.from_points(HANDCRAFTED_D3 + extras, 3), list(range(7))
    for triple in (TRIPLE, SCALED_TRIPLE, FRACTION_TRIPLE):
        yield PointConfiguration.from_points(triple + OCTET[3:], 2), [0, 1, 2]


def test_exceptional_set_matches_spanned_joins():
    # each catalog curve's join with the center, spanned by the rows of both:
    # one above the center, its points of A together with D are the
    # exceptional set, and its points off the center share one image, T's
    joins = 0
    for A, basis in _join_cases():
        state = build_pipeline(A, basis, A.d)
        center, rows = state.center, A.homogeneous_lifts(A.d)
        exceptional, images = set(state.d_indices), set()
        for e, vec in state.catalog:
            curve_rows = curve_lift_rows(e, vec, A.d)
            joined = row_span(center.ambient_dim, [*center.rows, *curve_rows])
            assert joined.dim == center.dim + 1
            exceptional |= {i for i, row in enumerate(rows) if joined.contains_row(row)}
            off = [row for row in curve_rows if not center.contains_row(row)]
            image = {state.projector.project_row(row) for row in off}
            assert len(image) == 1
            images |= image
            joins += 1
        assert state.e_indices == tuple(sorted(exceptional))
        assert set(state.t_points) == images
    assert joins == 2 * 2 + 3 * 3


def test_two_point_lines_examples():
    pts = [primitive(v) for v in [(1, 0, 0), (1, 1, 0), (1, 0, 1)]]
    assert len(two_point_lines(pts, [])) == 3
    assert two_point_lines(pts[:1], []) == ()
    # five points with a 3-rich line: pair brute force
    raw = [(1, 0, 0), (1, 1, 0), (1, 2, 0), (1, 0, 1), (1, 1, 2)]
    pts5 = [primitive(v) for v in raw]
    lines = two_point_lines(pts5, [])
    expected = set()
    for i, j in combinations(range(5), 2):
        line = line_through(pts5[i], pts5[j])
        assert line == primitive(line)
        if sum(1 for p in pts5 if sum(map(mul, line, p)) == 0) == 2:
            expected.add(line)
    assert set(lines) == expected
    # forbid one line's direction point: the count drops by the killed lines
    t = [pts5[3]]
    filtered = two_point_lines(pts5, t)
    assert set(filtered) == {ln for ln in expected if sum(map(mul, ln, t[0])) != 0}


def test_curves_from_basis_sound_d2(check_hyperplanes):
    A = PointConfiguration.from_points(OCTET, 2)
    res = grow_nd_chain(A, [], None, 2, seed=7)
    curves, state = curves_from_basis(A, res.basis, 2)
    assert len(curves) >= 1
    ords = ordinary_curves(A, state.n)
    assert curves.radicals() <= ords.radicals()
    b_idx = set(res.chain)
    for rec in curves.records:
        assert b_idx <= rec.incidence
        check_hyperplanes(rec, A.points, 2)


def test_curves_from_basis_sound_d3(check_hyperplanes):
    rng = random.Random(6)
    pts = set()
    while len(pts) < 11:
        pts.add((rng.randint(-9, 9), rng.randint(-9, 9)))
    A = PointConfiguration.from_points(sorted(pts), 3)
    res = grow_nd_chain(A, [], None, 3, seed=4)
    if not res.success:
        pytest.skip("no basis on this draw")
    curves, state = curves_from_basis(A, res.basis, 3)
    ords = ordinary_curves(A, state.n)
    assert curves.radicals() <= ords.radicals()
    assert state.trace["filtered"] == 0
    for rec in curves.records:
        check_hyperplanes(rec, A.points, 3)


def test_find_affine_chart():
    pts = [primitive(v) for v in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]]
    chart = find_affine_chart(pts)
    assert all(sum(a * b for a, b in zip(chart, p)) != 0 for p in pts)


def test_pipeline_rejects_unverified_basis():
    collinear = PointConfiguration.from_points(
        [(0, 0), (1, 0), (2, 0), (0, 1), (1, 3), (4, 5), (2, 9), (7, 2)], 2
    )
    with pytest.raises(HypothesisViolation):
        build_pipeline(collinear, [0, 1, 2], 2)


def test_pipeline_deterministic():
    A = PointConfiguration.from_points(OCTET, 2)
    c1, s1 = curves_from_basis(A, [0, 1, 2], 2)
    c2, s2 = curves_from_basis(A, [0, 1, 2], 2)
    assert c1.to_json_obj() == c2.to_json_obj()
    assert s1.to_json_obj() == s2.to_json_obj()


def _chart_centers():
    chart = json.loads((GOLDEN / "chart_points.json").read_text())
    yield [lift(p, 2) for p in chart["points"][:3]], 5
    rng = random.Random(31)
    for d, size in ((2, 3), (3, 7), (3, 7)):
        pts = set()
        while len(pts) < size:
            pts.add((Fraction(rng.randint(-9, 9), rng.randint(1, 4)), Fraction(rng.randint(-9, 9))))
        yield [lift(p, d) for p in sorted(pts)], ambient_dim(d)


@pytest.mark.parametrize("index", range(4))
def test_from_flat_forms_follow_the_equations(index):
    lifted, dim = list(_chart_centers())[index]
    center = flat_span(lifted, dim)
    if center.dim != dim - 3:
        pytest.skip("the sampled points do not span a codimension-3 flat")
    pm = HyperprojectionMap.from_flat(center)
    firsts = [next(filter(None, form[1:])) for form in pm.forms]
    # one common positive first linear entry across the three forms
    assert firsts[0] > 0 and firsts.count(firsts[0]) == 3
    for form, normal in zip(pm.forms, center.normals):
        # a multiple of its normal, of the sign of the normal's first linear
        # entry
        ratio = Fraction(firsts[0], next(filter(None, normal[1:])))
        assert tuple(ratio * x for x in normal) == form
