"""Degree-d Veronese lift and the polynomial/hyperplane dictionary.

The lift of a plane point is the vector of its nonconstant monomial values
x^n y^m, n+m in [1, d], in the global monomial order, living in
Q^(C(d+2,2)-1).  A polynomial class of degree in [1, d] corresponds to the
affine hyperplane with the same coefficients, and membership of a lifted
point in the hyperplane is exactly vanishing of the polynomial at the
source point.

Inside the package a hyperplane is its primitive integer coefficient vector,
constant first and then the monomial order.  `poly_to_vector` and
`vector_to_curve` are the whole dictionary; `spanned_curve` reads the curve
of a spanned hyperplane, which is squarefree, straight off its integer
vector, with no radical and no Fraction arithmetic (the lemma is stated
there).  `HyperplaneForm`, with `tau` and `tau_inverse`, is the
dictionary's Fraction view for library callers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

from .bipoly import BivariatePolynomial, PlaneCurve, _term_key, monomial_order
from .linalg import Vector, normalized, primitive

Point = tuple[Fraction, Fraction]


def as_point(p) -> Point:
    return (Fraction(p[0]), Fraction(p[1]))


def ambient_dim(d: int) -> int:
    """Dimension of the lift target space, C(d+2,2) - 1."""
    return comb(d + 2, 2) - 1


def lift(point, d: int) -> Vector:
    """Veronese image (x^n y^m) over the global monomial order, read off
    `integer_lift`: each entry after the first over the first, Z^d."""
    z, *row = integer_lift(point, d)
    return tuple(Fraction(v, z) for v in row)


def integer_lift(point, d: int) -> tuple[int, ...]:
    """Z^d * (1, lift) as integers, Z the point's common denominator.

    Entries are Z^d followed by X^n Y^m Z^(d-n-m) with X = Zx, Y = Zy: a
    positive multiple of the homogeneous row (1, lift), so rank, kernel and
    the sign of a form's value are those of the rational row.
    """
    x, y = Fraction(point[0]), Fraction(point[1])
    z = lcm(x.denominator, y.denominator)
    xs, ys, zs = [1], [1], [1]
    for _ in range(d):
        xs.append(xs[-1] * x.numerator * (z // x.denominator))
        ys.append(ys[-1] * y.numerator * (z // y.denominator))
        zs.append(zs[-1] * z)
    return (zs[d],) + tuple(xs[n] * ys[m] * zs[d - n - m] for n, m in monomial_order(d))


_NO_CURVE = "hyperplane has no non-constant coefficient; no curve"


def _vector_poly(vec, d: int) -> BivariatePolynomial:
    """Polynomial whose coefficients are (constant, monomial_order(d))."""
    coeffs = dict(zip(monomial_order(d), vec[1:]))
    coeffs[(0, 0)] = vec[0]
    p = BivariatePolynomial.from_dict(coeffs)
    if p.is_constant:
        raise ValueError(_NO_CURVE)
    return p


def vector_to_curve(vec, d: int) -> PlaneCurve:
    """Curve of the polynomial whose coefficients are (constant, monomial_order(d))."""
    return PlaneCurve.from_poly(_vector_poly(vec, d))


def spanned_curve(vec, d: int) -> PlaneCurve:
    """Curve of a vector spanning the degree-<=d vanishing space of a point set.

    Lemma: if a nonconstant p spans the one-dimensional space V(S) of
    polynomials of degree <= d vanishing on a point set S, then p is
    squarefree.  Suppose p = g^2 h with deg g >= 1.  For every q with
    deg q <= deg g, g h q has degree at most deg p <= d and vanishes wherever
    g h does, which is wherever p does, so it lies in V(S).  As q -> g h q
    is injective, V(S) then contains a copy of the polynomials of degree
    <= deg g, of dimension C(deg g + 2, 2) >= 3: a contradiction.

    So p is its own radical up to a scalar, and its canonical form is both
    the representative and the radical; no polynomial gcd is computed.  Every
    curve the package emits is of this kind: the N-subset hyperplanes
    (`determined.enumerate_determined`), the exceptional catalog and the line
    pullbacks (`projection`).

    The canonical form is read straight off the integer vector: its nonzero
    entries in graded-lex order (`_graded_positions`), divided by the
    vector's content, negated when the leading entry is negative.  Each
    coefficient becomes a Fraction once, with no Fraction arithmetic.
    """
    terms = [(mon, vec[i]) for i, mon in _graded_positions(d) if vec[i]]
    if not terms or terms[-1][0] == (0, 0):
        raise ValueError(_NO_CURVE)
    content = gcd(*vec)
    if terms[-1][1] < 0:
        content = -content
    p = BivariatePolynomial(tuple((mon, Fraction(c // content)) for mon, c in terms))
    return PlaneCurve(p, p)


@lru_cache(maxsize=None)
def _graded_positions(d: int) -> tuple:
    """(position, monomial) pairs of a vector (constant, monomial_order(d)),
    in the graded-lex order of `BivariatePolynomial.terms`."""
    mons = ((0, 0),) + monomial_order(d)
    return tuple(sorted(enumerate(mons), key=lambda t: _term_key(t[1])))


def poly_to_vector(p: BivariatePolynomial, d: int) -> tuple[int, ...]:
    """Primitive coefficient vector (constant, monomial_order(d)) of the class [p].

    Requires 1 <= deg p <= d.
    """
    if p.is_constant:
        raise ValueError("a hyperplane needs a nonconstant polynomial")
    if p.degree > d:
        raise ValueError(f"degree {p.degree} exceeds d={d}")
    coeffs = p.as_dict()
    return primitive([coeffs.get((0, 0), 0)] + [coeffs.get(nm, 0) for nm in monomial_order(d)])


class HyperplaneForm:
    """Affine hyperplane in lift space: constant + coeffs . z = 0.

    The Fraction view of a primitive coefficient vector, normalized so the
    first nonzero entry of (constant,) + coeffs is 1.
    """

    __slots__ = ("d", "constant", "coeffs")

    def __init__(self, d: int, constant: Fraction, coeffs: tuple[Fraction, ...]):
        self.d = d
        self.constant = constant
        self.coeffs = coeffs

    @staticmethod
    def from_vector(d: int, vec) -> "HyperplaneForm":
        if len(vec) != ambient_dim(d) + 1:
            raise ValueError("coefficient vector has the wrong length")
        constant, *coeffs = normalized(vec)
        if not any(coeffs):
            raise ValueError("hyperplane form needs a nonzero non-constant coefficient")
        return HyperplaneForm(d, constant, tuple(coeffs))

    def augmented(self) -> Vector:
        return (self.constant,) + self.coeffs


def tau(p: BivariatePolynomial, d: int) -> HyperplaneForm:
    """Hyperplane of the class [p]; requires 1 <= deg p <= d."""
    return HyperplaneForm.from_vector(d, poly_to_vector(p, d))


def tau_inverse(h: HyperplaneForm) -> PlaneCurve:
    """Curve whose polynomial is read off the hyperplane coefficients."""
    return vector_to_curve(h.augmented(), h.d)
