import copy
import json
import random
import sys
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from ordcurves import ndfamilies
from ordcurves.bipoly import PlaneCurve, parse_poly, rational_points_on_curve
from ordcurves.constructions import sample_configuration
from ordcurves.determined import (
    PointConfiguration, contained_in_curve, ordinary_curves, vanishing_dim,
)
from ordcurves.errors import HypothesisViolation
from ordcurves.linalg import (
    AffineFlat, affine_rank, kernel_root, kernel_step, prefix_kernels, primitive, rank, row_span,
)
from ordcurves.ndfamilies import (
    NdQuantities,
    _active_flats,
    _basis_rows,
    _degree_rows,
    _extend_walk,
    _forbidden,
    _regions,
    _root_walk,
    _section_order,
    _verdict,
    grow_nd_chain,
    nd_quantities,
    nd_verify,
    realizable_sections,
)
from ordcurves.oracle import oracle_nd
from ordcurves.projection import build_pipeline, curves_from_basis
from ordcurves.veronese import ambient_dim, integer_lift, lift, poly_to_vector

from flats_reference import flats, heavy_points

OCTET = [(0, 0), (1, 0), (0, 1), (3, 5), (2, 7), (5, 1), (1, 4), (6, 2)]
TRIPLE = [(0, 0), (1, 0), (0, 1)]


def recompute_quantities(B, D, e, d):
    """Straight-from-definition recomputation with rank arithmetic only."""
    lifted_d = [lift(p, e) for p in D]
    dim_v = affine_rank(lifted_d) - 1
    alpha = comb(e + 2, 2) - 2 - dim_v
    in_v = []
    for b in B:
        if not D:
            break
        if affine_rank(lifted_d + [lift(b, e)]) == affine_rank(lifted_d):
            in_v.append(b)
    gamma = len(in_v)
    rest = [b for b in B if b not in in_v]
    dim_w = affine_rank([lift(b, d - e) for b in rest]) - 1
    beta = comb(d - e + 2, 2) - 3 - dim_w
    mu = 0 if alpha < 0 else alpha + gamma + comb(d - e + 2, 2)
    cut = comb(d + 2, 2) - comb(d - e + 2, 2) - 1
    if min(alpha, beta) < 0 or gamma > cut:
        tau = 0
    elif gamma == cut:
        tau = alpha + beta + len(B) + 2
    else:
        tau = alpha + beta + len(B) + 3
    return alpha, beta, gamma, mu, tau


def test_quantities_empty_d():
    q = nd_quantities(TRIPLE, [], 1, 2)
    assert q.v_e.dim == -1
    assert q.alpha == comb(3, 2) - 1
    assert q.gamma == 0


def test_quantities_single_point():
    q = nd_quantities(TRIPLE, [TRIPLE[0]], 1, 2)
    assert q.v_e.dim == 0 and q.alpha == 1 and q.gamma == 1


def test_quantities_match_recomputation():
    rng = random.Random(4)
    B = [(rng.randint(-8, 8), rng.randint(-8, 8)) for _ in range(7)]
    B = list(dict.fromkeys(B))[:7]
    while len(B) < 7:
        B.append((rng.randint(-20, 20), rng.randint(-20, 20)))
    for e in (1, 2):
        for size in range(0, 4):
            for idx in combinations(range(7), size):
                D = [B[i] for i in idx]
                q = nd_quantities(B, D, e, 3)
                assert (q.alpha, q.beta, q.gamma, q.mu, q.tau) == recompute_quantities(
                    B, D, e, 3
                )


def test_quantities_reject_bad_e():
    with pytest.raises(HypothesisViolation):
        nd_quantities(TRIPLE, [], 0, 2)
    with pytest.raises(HypothesisViolation):
        nd_quantities(TRIPLE, [], 2, 2)


def _reference_holds(q, v_d_b, R, i):
    """The region rule on `nd_quantities`: point i, whose degree-k row is
    R[k][i], lies in U_e(B, D) when it lies in V_d(B), or alpha >= 0 and it
    lies in V_e, or beta >= 0 and in W_e."""
    if v_d_b.contains_row(R[q.d][i]):
        return True
    return q.alpha >= 0 and (
        q.v_e.contains_row(R[q.e][i]) or (q.beta >= 0 and q.w_e.contains_row(R[q.d - q.e][i]))
    )


def _region_membership(B, D, e, d, pt):
    """Whether pt lies in the forbidden region U_e(B, D), by `_reference_holds`."""
    v_d_b = row_span(ambient_dim(d), [integer_lift(b, d) for b in B])
    return _reference_holds(nd_quantities(B, D, e, d), v_d_b, _degree_rows([pt], d), 0)


def _triple_step(points, sample=None):
    """The grower's regions at d = 2 once B = TRIPLE, on TRIPLE + points:
    the rows, the active flats and `_regions`."""
    A = PointConfiguration.from_points(TRIPLE + points, 2)
    R = _degree_rows(A, 2)
    _, walk = list(_walks_along(R, (0, 1, 2), 2))[-1]
    active = list(_active_flats(walk, 3, 2, sample))
    return R, active, _regions(A, [0, 1, 2], 2, sample, walk, 3)


def test_forbidden_region_contains_basis():
    for b in TRIPLE:
        assert _region_membership(TRIPLE, [TRIPLE[0]], 1, 2, b)
    # the grower's test of V_d(B) alone forbids B too
    R, _, (v_d, _, _) = _triple_step([])
    assert all(_forbidden(R, 2, k, v_d, []) for k in range(3))


def test_no_active_region_forbids_nothing():
    # a carrier sample inside V_d(B) lies in every region, so none is
    # active, and not even V_d(B) is forbidden
    R, active, (v_d, tests, worst) = _triple_step([(5, 7)], _degree_rows(TRIPLE, 2))
    assert (active, v_d, tests, worst) == ([], None, [], 0)
    assert not any(_forbidden(R, 2, i, v_d, tests) for i in range(4))


def test_forbidden_region_alpha_negative_reduces_to_span():
    # D spanning the whole degree-1 lift plane makes alpha negative
    q = nd_quantities(TRIPLE, TRIPLE, 1, 2)
    assert q.alpha < 0
    rng = random.Random(9)
    for _ in range(30):
        pt = (rng.randint(-7, 7), rng.randint(-7, 7))
        direct = _region_membership(TRIPLE, TRIPLE, 1, 2, pt)
        from ordcurves.linalg import flat_span
        v_db = flat_span([lift(p, 2) for p in TRIPLE], 5)
        assert direct == v_db.contains(lift(pt, 2))
    # the grower keeps a test for each active region but that one, whose
    # flat is all of B
    _, active, (_, tests, _) = _triple_step([])
    assert [idx for _, idx, _, _, alpha, *_ in active if alpha < 0] == [(0, 1, 2)]
    assert len(tests) == len(active) - 1


def test_forbidden_region_point_outside():
    found = None
    for x in range(2, 30):
        pt = (x, x + 11)
        outside = not any(
            _region_membership(TRIPLE, list(D), 1, 2, pt)
            for size in range(0, 4)
            for D in combinations(TRIPLE, size)
        )
        # the grower's regions are those of every D, and forbid pt alike
        R, _, (v_d, tests, _) = _triple_step([pt])
        assert _forbidden(R, 2, 3, v_d, tests) == (not outside)
        if outside:
            found = pt
            break
    assert found is not None


def test_realizable_sections_triple():
    rows = [integer_lift(p, 1) for p in TRIPLE]
    sections = {frozenset(s) for s, _ in realizable_sections(rows, 1)}
    # the whole triple is not a line section; everything smaller is
    assert frozenset({0, 1, 2}) not in sections
    for size in (0, 1, 2):
        for idx in combinations(range(3), size):
            assert frozenset(idx) in sections


def test_realizable_sections_collinear():
    pts = [(0, 0), (1, 0), (2, 0)]
    rows = [integer_lift(p, 1) for p in pts]
    sections = {frozenset(s) for s, _ in realizable_sections(rows, 1)}
    assert frozenset({0, 1, 2}) in sections
    assert frozenset({0, 1}) not in sections  # any line through two hits the third


def _sections_by_subset_scan(rows, e):
    """Realizable sections by their definition: every subset in decreasing
    size, then in `combinations` order, kept when its vanishing dimension at
    degree e is positive and drops when any other point is adjoined, each
    with the primitive kernel of its rows."""
    monomials, n = comb(e + 2, 2), len(rows)
    nodes = {(): kernel_root(monomials)}

    def node(key):
        # the kernel of the rows of an ascending index tuple, one step from
        # that of the tuple without its last index
        if key not in nodes:
            parent = node(key[:-1])
            nodes[key] = kernel_step(parent, rows[key[-1]]) or parent
        return nodes[key]

    def vdim(idx):
        return len(node(tuple(sorted(idx)))[0])

    return [
        (idx, [primitive(k) for k in node(idx)[0]])
        for size in range(n, -1, -1)
        for idx in combinations(range(n), size)
        if vdim(idx) and all(vdim(idx + (j,)) < vdim(idx) for j in range(n) if j not in idx)
    ]


def _q(t, scale=3):
    return Fraction(t, scale)


_FREE = [(_q(7, 5), _q(-9, 4)), (_q(-11), _q(2, 7)), (_q(5, 9), _q(13, 2)),
         (_q(-8, 7), _q(-5)), (_q(17, 4), _q(1, 6)), (_q(-3, 8), _q(19, 5))]


def _on_line(k, slope, start):
    return [(_q(t), slope * _q(t) + _q(1, 2)) for t in range(start, start + k)]


def _on_conic(k):
    return [(_q(t, 2), _q(t * t, 4) - 1) for t in range(1, k + 1)]


# the 3x3 grid {0,1,2} x {0,1,3} less (2,3), the grid's ninth point, then
# (2,3) and three more points of the line 3y = x + 7 through it
_NINTH = [(x, y) for x in (0, 1, 2) for y in (0, 1, 3) if (x, y) != (2, 3)]
_NINTH += [(2, 3), (5, 4), (-1, 2), (8, 5)]

# (d, points, first failing condition or None); B is all of the points.  At
# d = 2 and 3 only condition (ii) can fail first.  At d = 4 the line meets B
# in 5, 4 or 3 points, and the conic's 8 points make the line's complement
# dependent at degree 3.  In the last basis every cubic through the eight
# other grid points passes through (2,3), so the line's four points are a
# (iii) section at e = 1 with a point in W.
SECTION_BASES = [
    (2, OCTET[:3], None),
    (2, _on_line(3, _q(1, 2), 0), "ii"),
    (3, [OCTET[i] for i in (0, 1, 2, 3, 5, 6, 7)], None),
    (3, _on_line(4, _q(1, 2), -1) + _FREE[:3], "ii"),
    (3, _on_conic(7), "ii"),
    (4, _on_line(2, _q(1, 2), 0) + _on_conic(4) + _FREE, None),
    (4, _on_line(5, _q(1, 2), -2) + _FREE + [(_q(2, 11), _q(-7, 2))], "ii"),
    (4, _on_line(4, -2, 1) + _on_conic(8), "iii"),
    (4, _on_line(3, -2, 1) + _on_conic(8) + _FREE[:1], "iv"),
    (4, _NINTH, None),
]


@pytest.mark.parametrize("d, points, condition", SECTION_BASES,
                         ids=[f"d{d}-{c or 'ok'}-{i}" for i, (d, _, c) in enumerate(SECTION_BASES)])
def test_realizable_sections_match_subset_scan(d, points, condition):
    A = PointConfiguration.from_points(points, d)
    verdict = nd_verify(A, list(range(len(A))), d)
    assert (verdict.failures[0]["condition"] if verdict.failures else None) == condition
    for e in range(1, d):
        rows = A.homogeneous_lifts(e)
        # each section comes with the kernel of its rows, once made primitive
        sections = [
            (idx, [primitive(k) for k in basis]) for idx, basis in realizable_sections(rows, e)
        ]
        assert sections == _sections_by_subset_scan(rows, e)


# a d=3 basis with a condition-(iii) section at e = 2: six points of the
# conic x^2 - y - 1 = 0, then one point off it; then four more points of A
CONIC_SECTION = _on_conic(6) + [
    (Fraction(7, 5), Fraction(-9, 4)), (Fraction(-11), Fraction(2, 7)),
    (Fraction(1, 3), Fraction(5, 7)), (Fraction(5, 9), Fraction(13, 2)),
    (Fraction(-8, 7), Fraction(-5)),
]


def test_conic_section_basis(monkeypatch, check_sections):
    A = PointConfiguration.from_points(CONIC_SECTION, 3)
    basis = list(range(7))
    inner = _count_calls(monkeypatch, "realizable_sections")
    verdict = nd_verify(A, basis, 3)
    # the six conic points are the one (iii) section
    conic = primitive(poly_to_vector(parse_poly("x^2 - y - 1"), 2))
    assert verdict.sections == ((2, (0, 1, 2, 3, 4, 5), conic),)
    assert check_sections(A, basis, verdict) == 1
    # the verifier reads the hyperplanes only (proof at `nd_verify`)
    assert inner == []
    assert oracle_nd(A, basis, 3)
    # the conic is the exceptional catalog, with one forbidden image point,
    # and each emitted curve is an ordinary curve of the pipeline's n
    state = build_pipeline(A, basis, 3)
    assert state.catalog == ((2, conic),)
    assert state.t_points == ((0, 0, 1),)
    assert state.n == 9
    curves, _ = curves_from_basis(A, basis, 3, state=state)
    ordinary = {rec.curve.radical for rec in ordinary_curves(A, 9).records}
    assert len(curves.records) == 6
    assert all(rec.curve.radical in ordinary for rec in curves.records)


def test_ninth_point_section_walks_no_flats(monkeypatch, check_sections):
    # (2,3), on the line, is the ninth base point of the cubic pencil
    # through the other eight grid points, so its degree-3 row lies in the
    # span W of the rest of B; still no flat inside the line can be the
    # first failure (the lemma at `nd_verify`), and the verifier walks none
    A = PointConfiguration.from_points(_NINTH, 4)
    inner = _count_calls(monkeypatch, "realizable_sections")
    verdict = nd_verify(A, list(range(12)), 4)
    assert verdict.ok
    assert verdict.sections == ((1, (8, 9, 10, 11), (7, 1, -3)),)
    assert check_sections(A, range(12), verdict) == 1
    assert inner == []


def _reference_verdict(A, B, d):
    """The verdict on every realizable section of B: at each degree e the
    DFS `flats` of rank below C(e+2,2) in `_section_order`, each with the
    `prefix_kernels` node of the rest of B, read by `_verdict`."""
    B, rows = _basis_rows(A, B, d)
    n_b = len(B)

    def sections(e):
        monomials = comb(e + 2, 2)
        rest_node = prefix_kernels(rows[d - e], comb(d - e + 2, 2))
        for idx, vecs in _section_order(flats(rows[e], monomials, monomials - 1).items()):
            yield idx, vecs, rest_node(tuple(i for i in range(n_b) if i not in idx))

    return _verdict(d, n_b, rank(rows[d]) - 1, ((e, sections(e)) for e in range(1, d)))


_GRID4 = [(x, y) for x in range(4) for y in range(4)]
_GRID5 = [(x, y) for x in range(5) for y in range(5)]
# (name, points, d, bases, first failing condition -> count of bases, count
# of (iii) sections over the passing bases)
EQUIVALENCE_CASES = [
    ("grid4-d2", _GRID4, 2, list(combinations(range(16), 3)), {None: 516, "ii": 44}, 1548),
    ("conic-d3", CONIC_SECTION, 3, list(combinations(range(11), 7)), {None: 330}, 5),
] + [
    (f"section-{i}", points, d, [tuple(range(len(points)))], {condition: 1},
     {0: 3, 9: 1}.get(i, 0))
    for i, (d, points, condition) in enumerate(SECTION_BASES)
] + [
    # bases with a (iii) section one of whose points has its degree-(d-e)
    # row in the span W of the rest of B, so that a flat inside the
    # section could fail (iv); by the lemma at `nd_verify` none does first
    (f"in-w-{name}", points, d, [basis], {condition: 1}, sections)
    for name, points, d, basis, condition, sections in [
        ("d4-ii", _GRID5, 4, (0, 1, 4, 6, 7, 9, 12, 13, 14, 19, 21, 24), "ii", 0),
        ("d4-iv-e1", _GRID5, 4, (2, 3, 4, 7, 8, 12, 13, 14, 16, 18, 19, 22), "iv", 0),
        ("d4-iv-e2", _GRID5, 4, (1, 2, 3, 4, 6, 7, 11, 15, 20, 21, 22, 24), "iv", 0),
        ("d4-ok", _GRID5, 4, (0, 1, 4, 5, 6, 9, 10, 11, 13, 14, 17, 21), None, 3),
        ("d3-ii", _GRID4, 3, (3, 4, 11, 12, 13, 14, 15), "ii", 0),
    ]
]


@pytest.mark.parametrize("name, points, d, bases, outcomes, sections", EQUIVALENCE_CASES,
                         ids=[case[0] for case in EQUIVALENCE_CASES])
def test_verdict_equals_every_flat_reference(name, points, d, bases, outcomes, sections):
    # the hyperplanes and the flats inside the (iii) sections decide as
    # every flat does: the same verdict, first failure and sections
    A = PointConfiguration.from_points(points, d)
    seen, examined = {}, 0
    for basis in bases:
        verdict = nd_verify(A, basis, d)
        expected = _reference_verdict(A, basis, d)
        assert (verdict.ok, verdict.failures, verdict.sections) == (
            expected.ok, expected.failures, expected.sections), basis
        condition = verdict.failures[0]["condition"] if verdict.failures else None
        seen[condition] = seen.get(condition, 0) + 1
        examined += len(verdict.sections)
    assert (seen, examined) == (outcomes, sections)


def test_verify_walks_no_flats(monkeypatch):
    # the verifier reads B's hyperplanes off the span scan and calls no
    # flats walk, with the same outcomes as every flat gives
    def never(*args):
        raise AssertionError("nd_verify walked flats")

    monkeypatch.setattr(ndfamilies, "realizable_sections", never)
    monkeypatch.setattr(ndfamilies, "flats_step", never)
    for _, points, d, bases, outcomes, _ in EQUIVALENCE_CASES:
        A = PointConfiguration.from_points(points, d)
        seen = {}
        for basis in bases:
            verdict = nd_verify(A, basis, d)
            condition = verdict.failures[0]["condition"] if verdict.failures else None
            seen[condition] = seen.get(condition, 0) + 1
        assert seen == outcomes


def test_nd_verify_examples():
    A = PointConfiguration.from_points(OCTET, 2)
    assert nd_verify(A, [0, 1, 2], 2).ok
    collinear = PointConfiguration.from_points([(0, 0), (1, 0), (2, 0), (0, 1)], 2)
    verdict = nd_verify(collinear, [0, 1, 2], 2)
    assert not verdict.ok
    assert verdict.failures[0]["condition"] == "ii"
    with pytest.raises(HypothesisViolation, match="distinct basis points"):
        nd_verify(A, [0, 0, 1], 2)
    with pytest.raises(HypothesisViolation):
        nd_verify(A, [0, 1], 2)


def test_failing_verdict_is_not_kept():
    # a failure record is a mutable dict, so a change to it must not reach
    # the next verify of the same basis
    A = PointConfiguration.from_points([(0, 0), (1, 0), (2, 0), (0, 1)], 2)
    nd_verify(A, [0, 1, 2], 2).failures[0]["section"].append(3)
    assert nd_verify(A, [0, 1, 2], 2).failures[0]["section"] == [0, 1, 2]


def test_grow_d2_success_and_guard_profile():
    A = PointConfiguration.from_points(OCTET, 2)
    res = grow_nd_chain(A, [], None, 2, seed=7)
    assert res.success
    assert nd_verify(A, res.chain, 2).ok
    bound = comb(4, 2)
    assert all(v <= bound for v in res.guard_trace[:-1])
    assert res.guard_trace[-1] < bound


def test_grow_d3_strict_guard():
    rng = random.Random(1)
    pts = set()
    while len(pts) < 10:
        pts.add((rng.randint(-9, 9), rng.randint(-9, 9)))
    A = PointConfiguration.from_points(sorted(pts), 3)
    res = grow_nd_chain(A, [], None, 3, seed=0)
    if res.success:
        assert all(v < comb(5, 2) for v in res.guard_trace)
        assert nd_verify(A, res.chain, 3).ok


def test_grow_with_carrier_cubic():
    c0 = PlaneCurve.from_poly(parse_poly("y - x^3"))
    pts = [(t, t**3) for t in range(-7, 8)] + [(1, 2)]
    A = PointConfiguration.from_points(pts, 3)
    res = grow_nd_chain(A, [len(pts) - 1], c0, 3, seed=0)
    assert res.success
    assert nd_verify(A, res.chain, 3).ok
    # everything grown beyond the seed lies on the carrier
    for i in res.chain[1:]:
        assert c0.contains(A.points[i])


def test_grow_failure_report_small_pool():
    A = PointConfiguration.from_points([(0, 0), (1, 0), (0, 1)], 3)
    res = grow_nd_chain(A, [], None, 3, seed=0)
    assert not res.success
    assert res.blocked


def test_grow_rejects_bad_seed():
    A = PointConfiguration.from_points(OCTET, 2)
    with pytest.raises(HypothesisViolation):
        grow_nd_chain(A, [0], None, 2, seed=0)
    c0 = PlaneCurve.from_poly(parse_poly("y"))
    with pytest.raises(HypothesisViolation):
        # seed point sits on the carrier
        grow_nd_chain(A, [0], c0, 2, seed=0)


def _carrier_config():
    """The carrier golden's points at d = 3, and the carrier y = x^3."""
    golden = Path(__file__).resolve().parent / "golden" / "carrier_points.json"
    points = [tuple(Fraction(x) for x in p) for p in json.loads(golden.read_text())["points"]]
    return PointConfiguration.from_points(points, 3), PlaneCurve.from_poly(parse_poly("y - x^3"))


def test_grow_rejects_seed_index_out_of_range():
    # a negative index would wrap to the last point and one past |A| raise a
    # raw IndexError; both are refused by name, as a basis index is
    A, c0 = _carrier_config()
    for bad in (-1, len(A)):
        with pytest.raises(HypothesisViolation, match="seed index in range"):
            grow_nd_chain(A, [bad], c0, 3, seed=0)


def test_grow_explicit_order_reproducible():
    A = PointConfiguration.from_points(OCTET, 2)
    order = [3, 4, 5, 6, 7, 0, 1, 2]
    r1 = grow_nd_chain(A, [], None, 2, order=order)
    r2 = grow_nd_chain(A, [], None, 2, order=order)
    assert r1.chain == r2.chain


def _spanning_subsets(A, e):
    """Subsets of size C(e+2,2) on no curve of degree <= e: those whose
    degree-e rows have full rank, the degree-0 row being (1,)."""
    size = comb(e + 2, 2)
    rows = A.homogeneous_lifts(e) if e else [(1,)] * len(A)
    return sum(rank(sub) == size for sub in combinations(rows, size))


def test_count_spanning_subsets():
    square = PointConfiguration.from_points([(0, 0), (1, 0), (0, 1), (1, 1)], 1)
    assert not contained_in_curve(square, 1)[0]
    assert _spanning_subsets(square, 1) == 4
    three_on_line = PointConfiguration.from_points([(0, 0), (1, 0), (2, 0), (0, 1)], 1)
    assert not contained_in_curve(three_on_line, 1)[0]
    assert _spanning_subsets(three_on_line, 1) == 3
    assert _spanning_subsets(three_on_line, 0) == 4
    # a set on a line has no spanning subset to count
    assert contained_in_curve(PointConfiguration.from_points([(0, 0), (1, 0), (2, 0)], 1), 1)[0]


def test_seed_guard_bound_all_subsets():
    # seeds of full lifted rank keep every section quantity under the cap at d=3
    for f, B0 in ((0, [(2, 3)]), (1, [(0, 0), (1, 0), (0, 1)])):
        if f >= 1:
            assert vanishing_dim(B0, f) == 0
        for e in (1, 2):
            for size in range(len(B0) + 1):
                for idx in combinations(range(len(B0)), size):
                    q = nd_quantities(B0, [B0[i] for i in idx], e, 3)
                    assert max(q.tau, q.mu) < comb(5, 2)


def test_flat_section_bound_for_off_curve_seeds():
    # a size-C(f+2,2) set off every degree-<=f curve meets any sampled flat
    # in at most 1 + dim(flat) lifted points, for e >= f
    from ordcurves.linalg import flat_span

    B0 = [(0, 0), (1, 0), (0, 1)]  # f = 1, non-collinear
    for e in (1, 2, 3):
        lifts = [lift(p, e) for p in B0]
        for size in range(1, 3):
            for idx in combinations(range(3), size):
                flat = flat_span([lifts[i] for i in idx])
                count = sum(1 for z in lifts if flat.contains(z))
                assert count <= 1 + flat.dim


def test_section_bound_for_curves_through_carrier():
    # growing along a carrier keeps its curve sections small: any curve of
    # admissible degree containing the carrier meets B in fewer than
    # C(d+2,2)-C(d-e+2,2)-2 points
    c0 = PlaneCurve.from_poly(parse_poly("y - x^2"))
    d = 3
    B0 = [(0, 1), (1, 0), (2, 5)]  # off the parabola, non-collinear
    assert all(not c0.contains(p) for p in B0)
    pts = [(t, t * t) for t in range(-8, 9) if (t, t * t) not in B0]
    A = PointConfiguration.from_points(B0 + pts, d)
    res = grow_nd_chain(A, [0, 1, 2], c0, d, seed=1)
    assert res.success
    B = list(A.subset(res.chain))
    # e = deg C0 = 2, the containing curve C = C0 itself
    count = sum(1 for b in B if c0.contains(b))
    assert count < comb(d + 2, 2) - comb(d - 2 + 2, 2) - 2
    # e = 3: C = C0 union a line through at most two seed points
    line = PlaneCurve.from_poly(parse_poly("x - y - 1"))  # through (0,1)? no: 0-1-1
    for line_text in ("y - 1", "x - 1", "x + y - 1"):
        line = PlaneCurve.from_poly(parse_poly(line_text))
        union_count = sum(1 for b in B if c0.contains(b) or line.contains(b))
        assert union_count < comb(d + 2, 2) - comb(d - 3 + 2, 2) - 2


def test_dimension_dichotomy_with_curve_samples():
    # if the off-curve part has full lifted rank at degree d-e, then the
    # union with a large curve sample has full rank at degree d
    rng = random.Random(12)
    c = PlaneCurve.from_poly(parse_poly("y - x^2"))
    e, d = 2, 3
    target = comb(d - e + 2, 2) - 1
    B = [(0, 1), (1, 3), (2, 0)]
    assert affine_rank([lift(p, d - e) for p in B]) - 1 == target
    sample = rational_points_on_curve(c, 14)
    dim_union = affine_rank([lift(p, d) for p in B + sample]) - 1
    assert dim_union == comb(d + 2, 2) - 1


def _regions_by_subset_scan(A, b, d, sample):
    """V_d(B) and the active regions over all 2^|b| subsets D of B, from
    `nd_quantities`: each distinct (e, D's closure as positions in b,
    primitive V_e and W_e normals, alpha, beta, gamma, mu, tau) maps to its
    quantities, less the regions holding the whole carrier sample by
    `_reference_holds`."""
    B = A.subset(b)
    R = _degree_rows(A, d)
    v_d_b = row_span(ambient_dim(d), [R[d][i] for i in b])
    out = {}
    for e in range(1, d):
        for size in range(len(B) + 1):
            for idx in combinations(range(len(B)), size):
                q = nd_quantities(B, [B[i] for i in idx], e, d)
                if sample is not None and all(
                    _reference_holds(q, v_d_b, sample, k) for k in range(len(sample[d]))
                ):
                    continue
                closure = tuple(k for k, i in enumerate(b) if q.v_e.contains_row(R[e][i]))
                key = (e, closure, q.v_e.normals, q.w_e.normals, q.alpha, q.beta, q.gamma,
                       q.mu, q.tau)
                out[key] = q
    return v_d_b, out


def _seeded_order(pool, seed):
    """The grower's candidate order for a seed: its shuffle of the pool."""
    order = list(pool)
    random.Random(seed).shuffle(order)
    return order


def _octet_grow():
    A = PointConfiguration.from_points(OCTET, 2)
    return A, grow_nd_chain(A, [], None, 2, seed=7), 0, None, _seeded_order(range(len(A)), 7)


def _random_general_grow():
    A = sample_configuration("random_general", seed=3001, count=9, d=3, genericity=3).config
    return A, grow_nd_chain(A, [], None, 3, seed=0), 0, None, _seeded_order(range(len(A)), 0)


def _carrier_grow():
    A, c0 = _carrier_config()
    sample = _degree_rows(rational_points_on_curve(c0, 2 * 3 * 3 + 1), 3)
    pool = [i for i in range(len(A)) if i != 15 and c0.contains(A.points[i])]
    return A, grow_nd_chain(A, [15], c0, 3, seed=0), 1, sample, _seeded_order(pool, 0)


def _walks_along(R, chain, d):
    """The grower's walk of every prefix of the chain, the empty one first,
    as (prefix, walk) pairs."""
    walk = _root_walk(d)
    yield (), walk
    for m in range(len(chain)):
        walk = _extend_walk(walk, R, d, chain[:m + 1])
        yield tuple(chain[:m + 1]), walk


def _assert_grower_walk(A, chain, d, degrees):
    """Along the chain, with the flats of each degree e in `degrees`: the
    grower's complement node of each flat is the `prefix_kernels` node of
    the flat's complement's degree-(d-e) rows, every vector has as many
    entries as there are monomials of its degree, and each step leaves the
    walk it was given as it was."""
    R = _degree_rows(A, d)
    d_node, walks = _root_walk(d)
    walk = d_node, {e: walks[e] for e in degrees}
    nodes = {e: prefix_kernels([R[d - e][j] for j in chain], comb(d - e + 2, 2)) for e in degrees}
    for m in range(len(chain)):
        before = copy.deepcopy(walk)
        stepped = _extend_walk(walk, R, d, chain[:m + 1])
        assert walk == before
        walk = stepped
        for e, (found, co) in walk[1].items():
            assert list(co) == list(found)
            for closure, co_node in co.items():
                assert co_node == nodes[e](tuple(j for j in range(m + 1) if j not in closure))
            assert all(len(k) == comb(e + 2, 2) for basis, _ in found.values() for k in basis)
            assert all(len(k) == comb(d - e + 2, 2) for basis, _ in co.values() for k in basis)


@pytest.mark.parametrize("e", [1, 2, 3])
@pytest.mark.parametrize("curve, k, free", [("line", 5, 4), ("conic", 7, 2), ("cubic", 10, 0)])
def test_grower_co_nodes_match_prefix_kernels(e, curve, k, free):
    # the points `test_flats_fold_matches_flats` folds at degree e, as a
    # d=4 chain in their order
    A = PointConfiguration.from_points(heavy_points(500 + 10 * e + k, curve, k, free), 4)
    _assert_grower_walk(A, list(range(len(A))), 4, [e])


def test_grower_co_nodes_match_prefix_kernels_on_grown_d4_chain():
    A = sample_configuration("random_general", seed=3000, count=14, d=4, genericity=4).config
    res = grow_nd_chain(A, [], None, 4, seed=0)
    assert res.success
    _assert_grower_walk(A, list(res.chain), 4, range(1, 4))


@pytest.mark.parametrize("grow", [_octet_grow, _random_general_grow, _carrier_grow],
                         ids=["octet-d2", "random_general-d3", "carrier-d3"])
def test_grow_regions_match_subset_scan(grow):
    A, res, seed_size, sample, order = grow()
    assert res.success
    d = A.d
    R = _degree_rows(A, d)
    for b, walk in _walks_along(R, res.chain, d):
        if len(b) < seed_size:
            continue
        step = len(b) - seed_size
        v_d_b, regions = _regions_by_subset_scan(A, b, d, sample)
        # one active flat per region of the scan; the grower's normals are
        # raw kernel vectors, and made primitive they are the scan's
        flats = [
            (e, idx, tuple(primitive(k) for k in v),
             tuple(primitive(k) for k in w), *quantities)
            for e, idx, v, w, *quantities in _active_flats(walk, len(b), d, sample)
        ]
        assert len(set(flats)) == len(flats)
        assert set(flats) == set(regions)
        # the guard value, from the pass and in the grower's trace
        v_d, tests, worst = _regions(A, list(b), d, sample, walk, step)
        guard = max((max(q.tau, q.mu) for q in regions.values()), default=0)
        assert worst == guard == res.guard_trace[step]
        # every candidate the scan's regions forbid, and no other, is
        # rejected, and the grower takes the first allowed one in its order
        candidates = [i for i in range(len(A)) if i not in b]
        rejected = [i for i in candidates if _forbidden(R, d, i, v_d, tests)]
        assert rejected == [
            i for i in candidates
            if any(_reference_holds(q, v_d_b, R, i) for q in regions.values())
        ]
        if len(b) < len(res.chain):
            assert res.chain[len(b)] == next(i for i in order if i in candidates
                                             and i not in rejected)
        # each kept test on every point of A, V_d(B) put aside as the V_d
        # of no points: the region's V_e alone, as its W_e is covered by a
        # region of the other degree (lemma at `_regions`)
        no_points = kernel_root(comb(d + 2, 2))[0]
        kept = [regions[key] for key in flats if key[4] >= 0]
        assert len(kept) == len(tests)
        for q, test in zip(kept, tests):
            for i in range(len(A)):
                assert _forbidden(R, d, i, no_points, [test]) == q.v_e.contains_row(R[q.e][i])


# three points on y = 0, three on y = x^2 - 3 and one more, and candidates
# on both curves and off them: here a region's W_e holds candidates, which
# it never does on the grower's own chains
W_CHAIN = [(-2, 0), (0, 0), (3, 0), (-1, -2), (1, -2), (2, 1), (5, 2)]
W_CANDIDATES = [p for x in range(-4, 5) for p in [(x, 0), (x, x * x - 3), (x, x + 7)]
                if p not in W_CHAIN]


@pytest.mark.parametrize("d, size, carrier", [
    (3, 6, None), (3, 6, "y + 2"), (4, 7, None), (4, 7, "y"),
])
def test_forbidden_needs_no_w_test(d, size, carrier):
    # the grower keeps no W_e test (lemma at `_regions`), yet on a chain
    # where W_e spans reach candidates outside V_e, it rejects exactly the
    # candidates of the scan's regions with W_e; each carrier makes some
    # region inactive
    A = PointConfiguration.from_points(W_CHAIN[:size] + W_CANDIDATES, d)
    R = _degree_rows(A, d)
    sample = None if carrier is None else _degree_rows(
        rational_points_on_curve(PlaneCurve.from_poly(parse_poly(carrier)), 2 * d * d + 1), d
    )
    b, walk = list(_walks_along(R, list(range(size)), d))[-1]
    if sample is not None:
        assert len(list(_active_flats(walk, size, d, sample))) < len(
            list(_active_flats(walk, size, d, None)))
    v_d, tests, _ = _regions(A, list(b), d, sample, walk, size)
    v_d_b, regions = _regions_by_subset_scan(A, b, d, sample)
    candidates = range(size, len(A))
    assert any(
        not v_d_b.contains_row(R[d][i]) and q.alpha >= 0 and q.beta >= 0
        and q.w_e.contains_row(R[d - q.e][i]) and not q.v_e.contains_row(R[q.e][i])
        for i in candidates for q in regions.values()
    )
    assert [i for i in candidates if _forbidden(R, d, i, v_d, tests)] == [
        i for i in candidates
        if any(_reference_holds(q, v_d_b, R, i) for q in regions.values())
    ]


def test_complement_spans_take_no_bareiss_per_section(monkeypatch):
    # the complement of every section and flat is a prefix-tree node, so
    # no rank or span is computed per section: a guard against one whole
    # elimination per section or per flat, and V_d(B) is one step from the
    # previous step's node; the verify runs on a fresh configuration, since
    # the grown one keeps the grow's verdict
    A, res, *_ = _random_general_grow()
    assert res.success
    calls = {"rank": 0, "row_span": 0}

    def counting(name):
        real = getattr(ndfamilies, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(ndfamilies, name, counted)

    counting("rank")
    counting("row_span")
    assert nd_verify(PointConfiguration.from_points(A.points, 3), list(res.chain), 3).ok
    assert calls == {"rank": 1, "row_span": 0}  # condition (i) only
    R = _degree_rows(A, 3)
    for b, walk in _walks_along(R, res.chain, 3):
        _regions(A, list(b), 3, None, walk, len(b))
    assert calls == {"rank": 1, "row_span": 0}  # V_d(B) is one step from its prefix


def test_grower_builds_no_region_objects(monkeypatch):
    # the grower reads its regions off its walk's kernel bases, so no step
    # builds a flat or a quantities record; `nd_quantities` builds both,
    # which shows the count works
    made = {AffineFlat: 0, NdQuantities: 0}

    def counting(cls):
        real = cls.__init__

        def counted(self, *args, **kwargs):
            made[cls] += 1
            real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)

    A = sample_configuration("random_general", seed=3001, count=9, d=3, genericity=3).config
    on_carrier, c0 = _carrier_config()
    counting(AffineFlat)
    counting(NdQuantities)
    nd_quantities(TRIPLE, [TRIPLE[0]], 1, 2)
    assert made == {AffineFlat: 2, NdQuantities: 1}
    assert grow_nd_chain(A, [], None, 3, seed=0).success
    assert grow_nd_chain(on_carrier, [15], c0, 3, seed=0).success
    assert made == {AffineFlat: 2, NdQuantities: 1}


def _grown_instances():
    yield _octet_grow()[:2]
    for k in range(3000, 3008):
        A = sample_configuration("random_general", seed=k, count=11, d=3, genericity=3).config
        for gs in (0, 1):
            yield A, grow_nd_chain(A, [], None, 3, seed=gs)
    yield _carrier_grow()[:2]


def test_grown_v_d_b_equals_row_span():
    # V_d(B) at every step, the basis the grower tests candidates against,
    # is the span of the chain's degree-d rows: its node in growth order,
    # made primitive, is the span's normals
    for A, res in _grown_instances():
        d = A.d
        R = _degree_rows(A, d)
        for b, walk in _walks_along(R, res.chain, d):
            v_d, _, _ = _regions(A, list(b), d, None, walk, len(b))
            span = row_span(ambient_dim(d), [R[d][i] for i in b])
            assert ambient_dim(d) - len(v_d) == span.dim
            assert tuple(primitive(k) for k in v_d) == span.normals


# (chain, guard_trace, blocked) of each `_grown_instances` grow, recorded
# before the grower took its flats walk one row per step
GROWN_PINS = [((6, 7, 2), (6, 6, 6, 5), ())] + [
    ((8, 9, 1, 2, 5, 3, 7), (9,) * 7 + (8,), ()),
    ((6, 8, 10, 7, 5, 3, 0), (9,) * 7 + (8,), ()),
] * 8 + [((15, 1, 10, 9, 5, 3, 4), (9,) * 6 + (8,), ())]
# the (iii) sections of those grows: the octet's three lines through two of
# its chain points
SECTIONS_GROWN = 3


def test_grown_instances_are_pinned():
    grown = [(res.chain, res.guard_trace, res.blocked) for _, res in _grown_instances()]
    assert grown == GROWN_PINS


def test_grown_verdict_equals_fresh_verify(check_sections):
    # the verdict the grower read off its last step's walk, kept on A, is
    # the one a fresh configuration's own walk gives, and each of its
    # sections is one primitive kernel vector
    grown = sections = 0
    for A, res in _grown_instances():
        if not res.success:
            continue
        grown += 1
        assert (res.chain, A.d) in A._verdict
        kept = nd_verify(A, list(res.chain), A.d)
        fresh = nd_verify(PointConfiguration.from_points(A.points, A.d), list(res.chain), A.d)
        assert (kept.ok, kept.failures) == (fresh.ok, fresh.failures) == (True, ())
        assert kept.sections == fresh.sections
        sections += check_sections(A, res.chain, kept)
    assert grown == 18
    assert sections == SECTIONS_GROWN


def _count_calls(monkeypatch, name="spanned_vectors"):
    # every call of a walk function, as the name of the function that made it
    callers = []
    real = getattr(ndfamilies, name)

    def counted(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(*args, **kwargs)

    monkeypatch.setattr(ndfamilies, name, counted)
    return callers


def test_chain_walks_its_basis_once(monkeypatch):
    A = sample_configuration("random_general", seed=3000, count=11, d=3, genericity=3).config
    scans = _count_calls(monkeypatch)
    steps = _count_calls(monkeypatch, "flats_step")
    res = grow_nd_chain(A, [], None, 3, seed=0)
    assert res.success
    assert nd_verify(A, list(res.chain), 3).ok
    state = build_pipeline(A, list(res.chain), 3)
    curves_from_basis(A, list(res.chain), 3, state=state)
    # no scan after the grow: one extend step per degree e < d at each
    # chain point
    assert scans == []
    assert len(steps) == (3 - 1) * len(res.chain)
    # a fresh configuration's verify scans once per degree e < d
    assert nd_verify(PointConfiguration.from_points(A.points, 3), list(res.chain), 3).ok
    assert scans == ["_deciding_sections"] * (3 - 1)


def test_grow_defaults_to_seed_0():
    # with neither an order nor a seed the shuffle is seed 0's, the default
    # of `nd-grow --seed`, so a default grow reproduces
    A = sample_configuration("random_general", seed=3000, count=11, d=3, genericity=3).config
    seeded = [grow_nd_chain(A, [], None, 3, seed=seed).to_json_obj() for seed in (0, 1)]
    assert seeded[0] != seeded[1]
    assert grow_nd_chain(A, [], None, 3).to_json_obj() == seeded[0]


def test_verdict_memo_keeps_one_basis(monkeypatch):
    A = sample_configuration("random_general", seed=3000, count=11, d=3, genericity=3).config
    b1 = list(grow_nd_chain(A, [], None, 3, seed=0).chain)
    b2 = list(grow_nd_chain(A, [], None, 3, seed=1).chain)
    assert b1 != b2
    fresh = PointConfiguration.from_points(A.points, 3)
    callers = _count_calls(monkeypatch)
    for b in (b1, b2, b1):
        assert nd_verify(fresh, b, 3).ok
    # one scan per degree e < d and fresh verify, none on a memo hit; B2
    # takes B1's place, so the second B1 scans again
    assert callers == ["_deciding_sections"] * 3 * (3 - 1)
    assert nd_verify(fresh, b1, 3).ok
    assert len(callers) == 3 * (3 - 1)
