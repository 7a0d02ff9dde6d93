import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordcurves.bipoly import (
    BivariatePolynomial,
    PlaneCurve,
    divides,
    parse_poly,
    poly_gcd,
    rational_points_on_curve,
    sigma_fiber_count,
    squarefree_radical,
)
from ordcurves.constructions import construct_theorem6
from ordcurves.oracle import oracle_determined

coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def polys(max_deg=3, max_terms=5):
    mons = [(n, m) for n in range(max_deg + 1) for m in range(max_deg + 1 - n)]
    return st.dictionaries(st.sampled_from(mons), coeffs, max_size=max_terms).map(
        BivariatePolynomial.from_dict
    )


def test_evaluate_examples():
    assert parse_poly("x + y - 1").evaluate((1, 0)) == 0
    assert parse_poly("x^2 + y^2").evaluate((0, 0)) == 0
    assert parse_poly("x*y").evaluate((2, 3)) == 6


@settings(max_examples=80, deadline=None)
@given(polys(), polys(), st.tuples(coeffs, coeffs))
def test_evaluate_ring_homomorphism(p, q, pt):
    assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)
    assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)


def test_parse_text_roundtrip_examples():
    for text in ["x + y - 1", "3/2*x^2*y - y^3 + 7", "-x", "x*y - 1", "5"]:
        p = parse_poly(text)
        assert parse_poly(p.text()).terms == p.terms


@settings(max_examples=80, deadline=None)
@given(polys())
def test_text_roundtrip(p):
    if p.is_zero:
        return
    assert parse_poly(p.text()).terms == p.terms


def _reference_text(p):
    """The text form by Fraction arithmetic: abs, comparisons and str(Fraction)."""
    if p.is_zero:
        return "0"
    parts = []
    for (n, m), c in reversed(p.terms):
        factors = []
        if n > 0:
            factors.append("x" if n == 1 else f"x^{n}")
        if m > 0:
            factors.append("y" if m == 1 else f"y^{m}")
        if not factors or abs(c) != 1:
            factors.insert(0, str(abs(c)))
        parts.append(("- " if c < 0 else "+ ") + "*".join(factors))
    joined = " ".join(parts)
    return joined[2:] if joined.startswith("+ ") else "-" + joined[2:]


@settings(max_examples=120, deadline=None)
@given(polys(max_deg=4, max_terms=8))
def test_text_matches_fraction_reference(p):
    assert p.text() == _reference_text(p)


@pytest.mark.parametrize("coeffs", [
    {(2, 1): Fraction(3, 2)},
    {(2, 1): Fraction(-3, 2), (0, 0): Fraction(1, 7)},
    {(1, 0): -1, (0, 1): 1, (0, 0): -1},
    {(0, 3): 1, (1, 1): Fraction(-1, 2), (0, 0): 12},
    {(0, 0): 1},
    {(0, 0): -1},
    {(0, 0): Fraction(-5, 3)},
    {(4, 0): -7, (0, 4): Fraction(10, 3), (1, 0): 1},
    {},
])
def test_text_examples_match_fraction_reference(coeffs):
    p = BivariatePolynomial.from_dict(coeffs)
    assert p.text() == _reference_text(p)


def test_text_of_oracle_radicals_matches_fraction_reference():
    radicals = oracle_determined(construct_theorem6(2, 7, seed=2).config)
    assert radicals and all(r.text() == _reference_text(r) for r in radicals)


def test_parse_rejects_garbage():
    from ordcurves.errors import InputFormatError

    for bad in ["", "x + + y", "zebra", "3//2*x"]:
        with pytest.raises(InputFormatError):
            parse_poly(bad)


def test_canonical_primitive_and_sign():
    p = parse_poly("1/2*x^2 + 1/3*y")
    c = p.canonical()
    assert c.terms == parse_poly("3*x^2 + 2*y").terms
    assert (-c).canonical().terms == c.terms
    assert c.canonical().terms == c.terms


def test_divmod_exactness():
    p = parse_poly("x^2 - y^2")
    g = parse_poly("x - y")
    assert divides(g, p) and divides(parse_poly("x + y"), p)
    assert not divides(parse_poly("x + 1"), p)


def test_gcd_examples():
    assert poly_gcd(parse_poly("x^2 + x*y"), parse_poly("x*y - x")).terms == parse_poly("x").terms
    assert poly_gcd(parse_poly("x + y"), parse_poly("x - y")).is_constant
    assert (
        poly_gcd(parse_poly("x^2 + 2*x*y + y^2"), parse_poly("x^2 + x*y - x - y")).terms
        == parse_poly("x + y").terms
    )


def test_gcd_zero_errors():
    with pytest.raises(ValueError):
        poly_gcd(BivariatePolynomial(()), parse_poly("x"))


@settings(max_examples=40, deadline=None)
@given(polys(max_deg=2, max_terms=3), polys(max_deg=2, max_terms=3), polys(max_deg=1, max_terms=2))
def test_gcd_divides_both(p, q, common):
    if p.is_zero or q.is_zero or common.is_zero:
        return
    a, b = p * common, q * common
    if a.is_zero or b.is_zero:
        return
    g = poly_gcd(a, b)
    assert divides(g, a) and divides(g, b)
    if not common.is_constant:
        assert divides(common.canonical(), g)


GCD_FACTORS = [
    "x - 2*y + 3", "2*y - 1", "3*x + 1",  # lines
    "x^2 + y^2 - 1", "y - x^2 + 2*x", "x*y - 1",  # conics
    "y - x^3 + x", "y^2 - x^3 - x", "x^3 + y^3 - 3*x*y",  # cubics
    "x^2 + 1", "3*x - 7", "y^2 - 2",  # pure in x or in y
    "1000003*x*y - 999983*y + 1000000",  # height 10^6
]


def _sympy_poly(sympy, p):
    x, y = sympy.symbols("x y")
    return sum(sympy.Rational(c.numerator, c.denominator) * x**n * y**m for (n, m), c in p.terms)


def test_gcd_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    factors = [parse_poly(text) for text in GCD_FACTORS]
    rng = random.Random(5)
    for _ in range(30):
        picked = rng.sample(factors, rng.randint(1, 4))
        cut = rng.randint(0, len(picked))
        shared, own = picked[:cut], picked[cut:]
        p, q = parse_poly("3/2"), parse_poly("-5")
        for f in shared:
            p, q = p * f.pow(rng.randint(1, 2)), q * f
        for f in own:
            if rng.random() < 0.5:
                p = p * f
            else:
                q = q * f
        ours = poly_gcd(p, q).canonical()
        part = sympy.Poly(sympy.gcd(_sympy_poly(sympy, p), _sympy_poly(sympy, q)), x, y)
        theirs = BivariatePolynomial.from_dict(
            {mon: Fraction(int(c.p), int(c.q)) for mon, c in part.terms()}
        ).canonical()
        assert ours == theirs, (p.text(), q.text())


def test_radical_examples():
    assert squarefree_radical(parse_poly("x^2 + 2*x*y + y^2")).terms == parse_poly("x + y").terms
    assert squarefree_radical(parse_poly("x^2*y")).terms == parse_poly("x*y").terms
    p = parse_poly("x + y - 1")
    assert squarefree_radical(p).terms == p.terms


def test_radical_is_squarefree_and_same_vanishing():
    rng = random.Random(5)
    factors = [parse_poly("x + y - 1"), parse_poly("x - 2"), parse_poly("y - x^2")]
    p = factors[0] * factors[0] * factors[1] * factors[2] * factors[2]
    rad = squarefree_radical(p)
    gx, gy = rad.derivative("x"), rad.derivative("y")
    g = rad
    for dv in (gx, gy):
        if not dv.is_zero:
            g = poly_gcd(g, dv)
    assert g.is_constant
    for _ in range(60):
        pt = (Fraction(rng.randint(-8, 8), rng.randint(1, 3)), Fraction(rng.randint(-8, 8)))
        assert (p.evaluate(pt) == 0) == (rad.evaluate(pt) == 0)


# f vanishes at y = 0, 1, -1, 2, -2, 3, so (x - f)(x + f) specialises to x^2
# at each of those values although it is squarefree
TRIAL_ROOTS = parse_poly("y^6 - 3*y^5 - 5*y^4 + 15*y^3 + 4*y^2 - 12*y")
INCONCLUSIVE = (parse_poly("x") - TRIAL_ROOTS) * (parse_poly("x") + TRIAL_ROOTS)


def _small_poly(rng, degree):
    """Random integer polynomial of exact total degree `degree`."""
    while True:
        coeffs = {(n, m): rng.randint(-3, 3)
                  for n in range(degree + 1) for m in range(degree + 1 - n)}
        p = BivariatePolynomial.from_dict(coeffs)
        if p.degree == degree:
            return p


def radical_cases():
    """(polynomial, whether it is squarefree) pairs of every required shape."""
    rng = random.Random(41)
    cases = []
    for _ in range(6):
        line, conic = _small_poly(rng, 1), _small_poly(rng, 2)
        other = _small_poly(rng, rng.randint(1, 2))
        cases.append((line * line * other, False))
        cases.append((conic * conic * _small_poly(rng, 1), False))
        lines = [_small_poly(rng, 1) for _ in range(rng.randint(2, 4))]
        product_of_lines = lines[0]
        for extra in lines[1:]:
            product_of_lines = product_of_lines * extra
        cases.append((product_of_lines, None))
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        y_only = parse_poly(f"y - {a}" if a >= 0 else f"y + {-a}")
        x_only = parse_poly(f"x - {b}" if b >= 0 else f"x + {-b}")
        cases.append((y_only * y_only * parse_poly("x - y^2 + 1"), False))
        cases.append((x_only.pow(3) * parse_poly("y - x^3 + 2*x"), False))
    cases.append((INCONCLUSIVE, True))
    # the repeated factor loses its x-degree at y = 0 and its y-degree at
    # x = 0, where the leading coefficients vanish
    cases.append((parse_poly("x*y + 1").pow(2) * parse_poly("x - 2") * parse_poly("y - 3"), False))
    # a squared pure-x factor is content of the y-coefficients
    cases.append((parse_poly("3*x - 7").pow(2) * parse_poly("x^2 + 1") * parse_poly("y^2 - x"), False))
    cases.append((parse_poly("x^2 - y^3"), True))
    cases.append((parse_poly("x*y - 1") * parse_poly("x + y"), True))
    return cases


def test_radical_squarefree_flags():
    # a polynomial is squarefree exactly when it is its own canonical radical
    for p, squarefree in radical_cases():
        if squarefree is not None:
            assert (squarefree_radical(p) == p.canonical()) == squarefree, p.text()


def test_radical_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    for p, _ in radical_cases():
        expr = sum(sympy.Rational(c.numerator, c.denominator) * x**n * y**m
                   for (n, m), c in p.terms)
        part = sympy.Poly(sympy.sqf_part(expr), x, y)
        theirs = BivariatePolynomial.from_dict(
            {mon: Fraction(int(c.p), int(c.q)) for mon, c in part.terms()}
        ).canonical()
        assert squarefree_radical(p) == theirs, p.text()


def test_radical_rejects_constant():
    with pytest.raises(ValueError):
        squarefree_radical(parse_poly("5"))


def test_plane_curve_identity_by_radical():
    double = PlaneCurve.from_poly(parse_poly("x^2 + 2*x*y + y^2"))
    single = PlaneCurve.from_poly(parse_poly("x + y"))
    other = PlaneCurve.from_poly(parse_poly("x - y"))
    assert double == single
    assert hash(double) == hash(single)
    assert double != other


def _brute_fiber_count(degs, d):
    total = 0
    for ms in product(range(1, d + 1), repeat=len(degs)):
        if sum(m * g for m, g in zip(ms, degs)) <= d:
            total += 1
    return total


def test_sigma_fiber_count_examples():
    assert sigma_fiber_count([1], 2) == 2
    assert sigma_fiber_count([1, 1], 3) == 3
    assert sigma_fiber_count([2], 3) == 1


def test_sigma_fiber_count_matches_enumeration():
    for d in range(1, 5):
        def partitions(total, cap):
            if total == 0:
                yield ()
                return
            for first in range(min(total, cap), 0, -1):
                for rest in partitions(total - first, first):
                    yield (first,) + rest

        for total in range(1, d + 1):
            for part in partitions(total, d):
                count = sigma_fiber_count(list(part), d)
                assert count == _brute_fiber_count(list(part), d)
                assert count <= d**d


def test_sigma_fiber_count_errors():
    with pytest.raises(ValueError):
        sigma_fiber_count([], 2)
    with pytest.raises(ValueError):
        sigma_fiber_count([0], 2)


def test_rational_points_on_graph_curves():
    cubic = PlaneCurve.from_poly(parse_poly("y - x^3"))
    pts = rational_points_on_curve(cubic, 9)
    assert len(pts) == len(set(pts)) == 9
    assert all(cubic.contains(p) for p in pts)
    line = PlaneCurve.from_poly(parse_poly("2*x + 3*y - 5"))
    pts = rational_points_on_curve(line, 5)
    assert all(line.contains(p) for p in pts)
    hyper = PlaneCurve.from_poly(parse_poly("x*y - 1"))
    pts = rational_points_on_curve(hyper, 7)
    assert all(hyper.contains(p) for p in pts)
    sideways = PlaneCurve.from_poly(parse_poly("x - y^2"))
    assert all(sideways.contains(p) for p in rational_points_on_curve(sideways, 4))


def test_rational_points_unsupported_curve():
    circle = PlaneCurve.from_poly(parse_poly("x^2 + y^2 - 1"))
    with pytest.raises(ValueError):
        rational_points_on_curve(circle, 3)
