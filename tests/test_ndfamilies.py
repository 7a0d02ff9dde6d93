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
from ordcurves.determined import PointConfiguration, vanishing_dim
from ordcurves.errors import HypothesisViolation
from ordcurves.linalg import AffineFlat, affine_rank, kernel, primitive, rank, row_span
from ordcurves.ndfamilies import (
    BasisCandidate,
    ForbiddenRegion,
    _active_pairs,
    _degree_rows,
    _extend_walk,
    _root_walk,
    count_spanning_subsets,
    forbidden_region_membership,
    grow_nd_chain,
    nd_quantities,
    nd_verify,
    realizable_sections,
)
from ordcurves.projection import build_pipeline, curves_from_basis
from ordcurves.veronese import ambient_dim, integer_lift, lift

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


def test_forbidden_region_contains_basis():
    for b in TRIPLE:
        assert forbidden_region_membership(TRIPLE, [TRIPLE[0]], 1, 2, b)


def test_forbidden_region_alpha_negative_reduces_to_span():
    # D spanning the whole degree-1 lift plane makes alpha negative
    q = nd_quantities(TRIPLE, TRIPLE, 1, 2)
    assert q.alpha < 0
    rng = random.Random(9)
    for _ in range(30):
        pt = (rng.randint(-7, 7), rng.randint(-7, 7))
        direct = forbidden_region_membership(TRIPLE, TRIPLE, 1, 2, pt)
        from ordcurves.linalg import flat_span
        v_db = flat_span([lift(p, 2) for p in TRIPLE], 5)
        assert direct == v_db.contains(lift(pt, 2))


def test_forbidden_region_point_outside():
    found = None
    for x in range(2, 30):
        pt = (x, x + 11)
        if not any(
            forbidden_region_membership(TRIPLE, list(D), 1, 2, pt)
            for size in range(0, 4)
            for D in combinations(TRIPLE, size)
        ):
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
    degree e is positive and drops when any other point is adjoined."""
    monomials, n = comb(e + 2, 2), len(rows)
    dims = {}

    def vdim(idx):
        key = frozenset(idx)
        if key not in dims:
            dims[key] = monomials - rank([rows[i] for i in key])
        return dims[key]

    return [
        idx
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


# (d, points, first failing condition or None); B is all of the points.  At
# d = 2 and 3 only condition (ii) can fail first.  At d = 4 the line meets B
# in 5, 4 or 3 points, and the conic's 8 points make the line's complement
# dependent at degree 3.
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
]


@pytest.mark.parametrize("d, points, condition", SECTION_BASES,
                         ids=[f"d{d}-{c or 'ok'}-{i}" for i, (d, _, c) in enumerate(SECTION_BASES)])
def test_realizable_sections_match_subset_scan(d, points, condition):
    A = PointConfiguration.from_points(points, d)
    verdict = nd_verify(A, list(range(len(A))), d)
    assert (verdict.failures[0]["condition"] if verdict.failures else None) == condition
    for e in range(1, d):
        rows = A.homogeneous_lifts(e)
        sections = realizable_sections(rows, e)
        assert [idx for idx, _ in sections] == _sections_by_subset_scan(rows, e)
        # each section comes with the kernel of its rows, once made primitive
        for idx, basis in sections:
            expected = kernel([rows[i] for i in idx], comb(e + 2, 2))
            assert [primitive(k) for k in basis] == expected


def test_nd_verify_examples():
    A = PointConfiguration.from_points(OCTET, 2)
    assert nd_verify(A, [0, 1, 2], 2).ok
    collinear = PointConfiguration.from_points([(0, 0), (1, 0), (2, 0), (0, 1)], 2)
    verdict = nd_verify(collinear, [0, 1, 2], 2)
    assert not verdict.ok
    assert verdict.failures[0]["condition"] == "ii"
    with pytest.raises(HypothesisViolation):
        BasisCandidate(((0, 0), (0, 0), (1, 1)), 2)
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
    assert nd_verify(A, res.basis, 2).ok
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
        assert nd_verify(A, res.basis, 3).ok


def test_grow_with_carrier_cubic():
    c0 = PlaneCurve.from_poly(parse_poly("y - x^3"))
    pts = [(t, t**3) for t in range(-7, 8)] + [(1, 2)]
    A = PointConfiguration.from_points(pts, 3)
    res = grow_nd_chain(A, [len(pts) - 1], c0, 3, seed=0)
    assert res.success
    assert nd_verify(A, res.basis, 3).ok
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


def test_grow_explicit_order_reproducible():
    A = PointConfiguration.from_points(OCTET, 2)
    order = [3, 4, 5, 6, 7, 0, 1, 2]
    r1 = grow_nd_chain(A, [], None, 2, order=order)
    r2 = grow_nd_chain(A, [], None, 2, order=order)
    assert r1.chain == r2.chain


def test_count_spanning_subsets():
    assert count_spanning_subsets(
        PointConfiguration.from_points([(0, 0), (1, 0), (0, 1), (1, 1)], 1), 1
    ) == 4
    assert count_spanning_subsets(
        PointConfiguration.from_points([(0, 0), (1, 0), (2, 0), (0, 1)], 1), 1
    ) == 3
    assert count_spanning_subsets(
        PointConfiguration.from_points([(0, 0), (1, 0), (2, 0), (0, 1)], 1), 0
    ) == 4
    with pytest.raises(HypothesisViolation):
        count_spanning_subsets(
            PointConfiguration.from_points([(0, 0), (1, 0), (2, 0)], 1), 1
        )


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
    B = list(res.basis.points)
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
    """Distinct (e, v_e, w_e, alpha, beta, gamma, mu, tau) over all 2^|b|
    subsets D of B, from `nd_quantities`, less the regions holding the
    whole carrier sample."""
    B = A.subset(b)
    v_d_b = row_span(ambient_dim(d), [integer_lift(p, d) for p in B])
    out = set()
    for e in range(1, d):
        for size in range(len(B) + 1):
            for idx in combinations(range(len(B)), size):
                q = nd_quantities(B, [B[i] for i in idx], e, d)
                if sample is not None and all(
                    ForbiddenRegion(q, v_d_b).contains(sample, k)
                    for k in range(len(sample[d]))
                ):
                    continue
                out.add((e, q.v_e, q.w_e, q.alpha, q.beta, q.gamma, q.mu, q.tau))
    return out


def _octet_grow():
    A = PointConfiguration.from_points(OCTET, 2)
    return A, grow_nd_chain(A, [], None, 2, seed=7), 0, None


def _random_general_grow():
    A = sample_configuration("random_general", seed=3001, count=9, d=3, genericity=3).config
    return A, grow_nd_chain(A, [], None, 3, seed=0), 0, None


def _carrier_grow():
    golden = Path(__file__).resolve().parent / "golden" / "carrier_points.json"
    points = [tuple(Fraction(x) for x in p) for p in json.loads(golden.read_text())["points"]]
    A = PointConfiguration.from_points(points, 3)
    c0 = PlaneCurve.from_poly(parse_poly("y - x^3"))
    sample = _degree_rows(rational_points_on_curve(c0, 2 * 3 * 3 + 1), 3)
    return A, grow_nd_chain(A, [15], c0, 3, seed=0), 1, sample


def _walks_along(R, chain, d):
    """The grower's walk of every prefix of the chain, the empty one first,
    as (prefix, walk) pairs; each walk is spent by the next step."""
    walk = _root_walk(d)
    yield (), walk
    for m, i in enumerate(chain):
        walk = _extend_walk(walk, R, d, m, i)
        yield tuple(chain[:m + 1]), walk


def _primitive_flat(flat):
    """The flat with its normals made primitive, as `row_span` gives them:
    a flat's raw kernel basis made primitive is `kernel` of its rows."""
    return AffineFlat(flat.ambient_dim, flat.rows, tuple(primitive(v) for v in flat.normals))


@pytest.mark.parametrize("grow", [_octet_grow, _random_general_grow, _carrier_grow],
                         ids=["octet-d2", "random_general-d3", "carrier-d3"])
def test_grow_regions_match_subset_scan(grow):
    A, res, seed_size, sample = grow()
    assert res.success
    d = A.d
    R = _degree_rows(A, d)
    for b, walk in _walks_along(R, res.chain, d):
        if len(b) < seed_size:
            continue
        pairs, _ = _active_pairs(R, b, d, sample, walk)
        quantities = [(e, region.quantities) for e, _, region in pairs]
        # the grower's normals are raw kernel vectors; made primitive they
        # are the subset scan's
        regions = [
            (e, _primitive_flat(q.v_e), _primitive_flat(q.w_e), q.alpha, q.beta, q.gamma,
             q.mu, q.tau)
            for e, q in quantities
        ]
        assert len(set(regions)) == len(regions)  # one region per flat
        assert set(regions) == _regions_by_subset_scan(A, b, d, sample)
        B = A.subset(b)
        for e, idx, region in pairs:
            # D is a flat's positions in b: the points of B in V_e
            q = region.quantities
            in_v = [k for k, i in enumerate(b) if q.v_e.contains_row(R[e][i])]
            assert list(idx) == in_v
            # the spanning rows too, which normals alone do not pin: V_e's
            # are D's and W_e's the rest of B's, as `nd_quantities` takes them
            by_d = nd_quantities(B, [B[k] for k in idx], e, d)
            assert (q.v_e.rows, q.w_e.rows) == (by_d.v_e.rows, by_d.w_e.rows)


def test_complement_spans_take_no_bareiss_per_section(monkeypatch):
    # the complement of every section and flat is a prefix-tree node, so
    # no rank or span is computed per section: a guard against one whole
    # elimination per section or per flat, and V_d(B) is one step from the
    # previous step's node; the verify runs on a fresh configuration, since
    # the grown one keeps the grow's verdict
    A, res, _, _ = _random_general_grow()
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
        _active_pairs(R, b, 3, None, walk)
    assert calls == {"rank": 1, "row_span": 0}  # V_d(B) is one step from its prefix


def _grown_instances():
    yield _octet_grow()[:2]
    for k in range(3000, 3008):
        A = sample_configuration("random_general", seed=k, count=11, d=3, genericity=3).config
        for gs in (0, 1):
            yield A, grow_nd_chain(A, [], None, 3, seed=gs)
    yield _carrier_grow()[:2]


def test_grown_v_d_b_equals_row_span():
    # V_d(B) at every step, from the node of the chain in growth order, is
    # the span of the chain's degree-d rows
    for A, res in _grown_instances():
        d = A.d
        R = _degree_rows(A, d)
        for b, walk in _walks_along(R, res.chain, d):
            _, v_d_b = _active_pairs(R, b, d, None, walk)
            span = row_span(ambient_dim(d), [R[d][i] for i in b])
            assert (v_d_b.rows, v_d_b.dim) == (span.rows, span.dim)
            assert _primitive_flat(v_d_b).normals == span.normals


# (chain, guard_trace, blocked) of each `_grown_instances` grow, recorded
# before the grower took its flats walk one row per step
GROWN_PINS = [((6, 7, 2), (6, 6, 6, 5), ())] + [
    ((8, 9, 1, 2, 5, 3, 7), (9,) * 7 + (8,), ()),
    ((6, 8, 10, 7, 5, 3, 0), (9,) * 7 + (8,), ()),
] * 8 + [((15, 1, 10, 9, 5, 3, 4), (9,) * 6 + (8,), ())]


def test_grown_instances_are_pinned():
    grown = [(res.chain, res.guard_trace, res.blocked) for _, res in _grown_instances()]
    assert grown == GROWN_PINS


def test_grown_verdict_equals_fresh_verify():
    # the verdict the grower read off its last step's walk, kept on A, is
    # the one a fresh configuration's own walk gives
    grown = 0
    for A, res in _grown_instances():
        if not res.success:
            continue
        grown += 1
        assert (res.chain, A.d) in A._verdict
        kept = nd_verify(A, list(res.chain), A.d)
        fresh = nd_verify(PointConfiguration.from_points(A.points, A.d), list(res.chain), A.d)
        assert (kept.ok, kept.failures) == (fresh.ok, fresh.failures) == (True, ())
        assert kept.sections == fresh.sections
    assert grown == 18


def _count_calls(monkeypatch, name="flats"):
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
    walks = _count_calls(monkeypatch)
    steps = _count_calls(monkeypatch, "flats_step")
    res = grow_nd_chain(A, [], None, 3, seed=0)
    assert res.success
    assert nd_verify(A, list(res.chain), 3).ok
    state = build_pipeline(A, list(res.chain), 3)
    curves_from_basis(A, list(res.chain), 3, state=state)
    # no whole walk: one extend step per degree e < d at each chain point
    assert walks == []
    assert len(steps) == (3 - 1) * len(res.chain)


def test_verdict_memo_keeps_one_basis(monkeypatch):
    A = sample_configuration("random_general", seed=3000, count=11, d=3, genericity=3).config
    b1 = list(grow_nd_chain(A, [], None, 3, seed=0).chain)
    b2 = list(grow_nd_chain(A, [], None, 3, seed=1).chain)
    assert b1 != b2
    fresh = PointConfiguration.from_points(A.points, 3)
    callers = _count_calls(monkeypatch)
    for b in (b1, b2, b1):
        assert nd_verify(fresh, b, 3).ok
    # B2 takes B1's place, so the second B1 walks again
    assert callers == ["realizable_sections"] * 3 * (3 - 1)
