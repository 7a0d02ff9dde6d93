import random
from fractions import Fraction
from math import comb, gcd, lcm
from operator import mul

import pytest

from ordcurves.bipoly import monomial_order, parse_poly
from ordcurves.linalg import affine_rank
from ordcurves.veronese import (
    HyperplaneForm,
    ambient_dim,
    integer_lift,
    lift,
    _vector_poly,
    spanned_curve,
    tau,
    tau_inverse,
)


def test_lift_examples():
    assert lift((1, 2), 2) == tuple(map(Fraction, (1, 2, 1, 2, 4)))
    assert lift((0, 0), 3) == tuple([Fraction(0)] * 9)
    assert lift((2, 3), 1) == (Fraction(2), Fraction(3))
    assert ambient_dim(3) == comb(5, 2) - 1 == 9


def test_lift_injective_on_samples():
    rng = random.Random(3)
    pts = set()
    while len(pts) < 40:
        pts.add((Fraction(rng.randint(-9, 9), rng.randint(1, 4)), Fraction(rng.randint(-9, 9))))
    pts = sorted(pts)
    for d in (1, 2, 3):
        images = {lift(p, d) for p in pts}
        assert len(images) == len(pts)


def test_integer_lift_is_scaled_homogeneous_row():
    rng = random.Random(29)
    pts = [(Fraction(1, 2), Fraction(-3, 7)), (Fraction(-7, 3), Fraction(7, 6)), (0, Fraction(5, 4))]
    while len(pts) < 30:
        pts.append((Fraction(rng.randint(-10**6, 10**6), rng.randint(2, 10**6)),
                    Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))))
    for p in pts:
        z = lcm(Fraction(p[0]).denominator, Fraction(p[1]).denominator)
        x, y = Fraction(p[0]), Fraction(p[1])
        for d in (1, 2, 3, 4):
            row = integer_lift(p, d)
            assert all(type(c) is int for c in row)
            # the lift, read off the integer row, is the monomials' values
            monomials = tuple(x**n * y**m for n, m in monomial_order(d))
            assert lift(p, d) == monomials
            assert row == tuple(z**d * c for c in (Fraction(1),) + monomials)
    assert integer_lift((Fraction(1, 2), Fraction(1, 3)), 2) == (36, 18, 12, 9, 6, 4)


def test_monotone_dimension():
    rng = random.Random(11)
    pts = [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(8)]
    for e in (1, 2):
        for d in range(e, 4):
            dim_e = affine_rank([lift(p, e) for p in pts]) - 1
            dim_d = affine_rank([lift(p, d) for p in pts]) - 1
            assert dim_e <= dim_d


def test_dictionary_vanishing_iff_on_hyperplane():
    rng = random.Random(19)
    polys = [parse_poly(t) for t in ("x + y - 1", "y - x^2", "x*y - 1", "x^2 + y^2 - 25")]
    for p in polys:
        for d in range(p.degree, 4):
            h = tau(p, d)
            for _ in range(25):
                a = (rng.randint(-6, 6), rng.randint(-6, 6))
                on_h = sum(map(mul, h.augmented(), (1, *lift(a, d)))) == 0
                assert (p.evaluate(a) == 0) == on_h


def test_tau_examples():
    h = tau(parse_poly("x + y - 1"), 1)
    assert h.augmented() == (Fraction(1), Fraction(-1), Fraction(-1))
    h2 = tau(parse_poly("x + y - 1"), 2)
    assert h2.augmented()[:3] == (Fraction(1), Fraction(-1), Fraction(-1))
    assert h2.augmented()[3:] == (Fraction(0),) * 3
    h3 = tau(parse_poly("x*y - 1"), 2)
    # only the (1,1) coordinate carries weight besides the constant
    assert h3.coeffs == (Fraction(0), Fraction(0), Fraction(0), Fraction(-1), Fraction(0))


def test_tau_errors():
    with pytest.raises(ValueError):
        tau(parse_poly("5"), 2)
    with pytest.raises(ValueError):
        tau(parse_poly("x^3"), 2)


def test_tau_inverse_examples():
    # tau_inverse takes the general path, which computes the radical
    for text, d, radical in (
        ("x + y - 1", 1, "x + y - 1"),
        ("x + y - 1", 2, "x + y - 1"),
        ("x + y - 1", 3, "x + y - 1"),
        ("x^2 - 2*x + 1", 2, "x - 1"),
    ):
        curve = tau_inverse(tau(parse_poly(text), d))
        assert curve.radical.terms == parse_poly(radical).canonical().terms
    h = HyperplaneForm.from_vector(2, (-1, 0, 0, 1, 0, 0))
    assert tau_inverse(h).representative.terms == parse_poly("x^2 - 1").terms
    h2 = HyperplaneForm.from_vector(2, (0, 0, 1, -1, 0, 0))
    assert tau_inverse(h2).radical.terms == parse_poly("y - x^2").canonical().terms


def _spanned_test_vectors(rng, d):
    """Integer vectors (constant, monomial_order(d)) whose leading degree t is
    random, with zeros in the degree-t block, content above 1 and either
    leading sign."""
    n = ambient_dim(d) + 1
    for _ in range(150):
        t = rng.randint(1, d)
        block = range(comb(t + 1, 2), comb(t + 2, 2))
        vec = [rng.choice((0, rng.randint(-9, 9))) for _ in range(block.start)]
        vec += [rng.choice((0, rng.randint(-9, 9))) for _ in block]
        vec[rng.choice(block)] = rng.choice((-1, 1)) * rng.randint(1, 9)
        vec += [0] * (n - len(vec))
        yield tuple(rng.choice((1, 1, -2, 3, 6)) * c for c in vec)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_spanned_curve_is_the_canonical_vector_polynomial(d):
    rng = random.Random(100 + d)
    seen = set()
    for vec in _spanned_test_vectors(rng, d):
        curve = spanned_curve(vec, d)
        raw = _vector_poly(vec, d)
        assert curve.representative.terms == raw.canonical().terms, vec
        assert curve.radical is curve.representative
        assert all(type(c) is Fraction for _, c in curve.representative.terms)
        (n, m), leading = raw.terms[-1]
        top = vec[comb(n + m + 1, 2):comb(n + m + 2, 2)]
        seen |= {("content", gcd(*vec) > 1), ("negative", leading < 0), ("block zeros", 0 in top)}
    assert {("content", True), ("negative", True), ("block zeros", True)} <= seen


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_spanned_curve_refuses_constant_vectors(d):
    n = ambient_dim(d) + 1
    for vec in [(0,) * n, (5,) + (0,) * (n - 1), (-3,) + (0,) * (n - 1)]:
        with pytest.raises(ValueError):
            spanned_curve(vec, d)


def test_hyperplane_form_requires_nonconstant():
    with pytest.raises(ValueError):
        HyperplaneForm.from_vector(1, (1, 0, 0))
