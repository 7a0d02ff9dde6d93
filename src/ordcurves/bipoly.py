"""Exact bivariate polynomials over Q and plane curves identified by radicals.

A polynomial is a sparse map (n, m) -> coefficient for the monomial x^n y^m.
The canonical form is primitive (integer coefficients, content 1) with the
leading coefficient positive in graded lex order (total degree first, then
x-degree).  Curve identity throughout the package is identity of canonical
squarefree radicals; two polynomials that differ by a positive-definite
factor (empty real zero set) therefore count as different curves, a
documented gap accepted here because the configurations exercised never
trigger it.  `PlaneCurve.from_poly` computes the radical; every curve the
package emits is spanned, hence squarefree by the lemma at
`veronese.spanned_curve`, and is built there with no radical computed.

Gcds, exact quotients and divisibility run on the canonical integer form
alone, held densely as an element of Z[x][y]: one primitive
pseudo-remainder sequence in y, whose contents are gcds in Z[x] taken by the
same code one level down.  No Fraction enters that path.

The global coordinate order used for Veronese vectors and file formats lists
(n, m) by total degree ascending, then n descending: x, y, x^2, xy, y^2, ...
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import HypothesisViolation, InputFormatError, InvariantViolation

_ZERO = Fraction(0)

Monomial = tuple[int, int]


@lru_cache(maxsize=None)
def monomial_order(d: int) -> tuple[Monomial, ...]:
    """Nonconstant monomials (n, m) with n+m in [1, d], in the global order."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    out = []
    for total in range(1, d + 1):
        for n in range(total, -1, -1):
            out.append((n, total - n))
    return tuple(out)


def _term_key(mon: Monomial):
    # graded lex with x > y; max key = leading term
    return (mon[0] + mon[1], mon[0])


@dataclass(frozen=True)
class BivariatePolynomial:
    """Immutable sparse polynomial; `terms` is sorted by monomial and zero-free."""

    terms: tuple[tuple[Monomial, Fraction], ...]

    @staticmethod
    def from_dict(coeffs: dict) -> "BivariatePolynomial":
        items = []
        for (n, m), c in coeffs.items():
            if type(c) is not Fraction:
                c = Fraction(c)
            if c:
                items.append(((int(n), int(m)), c))
        items.sort(key=lambda t: _term_key(t[0]))
        return BivariatePolynomial(tuple(items))

    def as_dict(self) -> dict:
        return dict(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if self.is_zero:
            return -1
        return max(n + m for (n, m), _ in self.terms)

    @property
    def is_constant(self) -> bool:
        return self.degree <= 0

    def __add__(self, other):
        out = self.as_dict()
        for mon, c in other.terms:
            out[mon] = out.get(mon, _ZERO) + c
        return BivariatePolynomial.from_dict(out)

    def __sub__(self, other):
        out = self.as_dict()
        for mon, c in other.terms:
            out[mon] = out.get(mon, _ZERO) - c
        return BivariatePolynomial.from_dict(out)

    def __neg__(self):
        return BivariatePolynomial(tuple((m, -c) for m, c in self.terms))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        out: dict = {}
        for (n1, m1), c1 in self.terms:
            for (n2, m2), c2 in other.terms:
                key = (n1 + n2, m1 + m2)
                out[key] = out.get(key, _ZERO) + c1 * c2
        return BivariatePolynomial.from_dict(out)

    __rmul__ = __mul__

    def scale(self, c) -> "BivariatePolynomial":
        c = Fraction(c)
        if c == 0:
            return ZERO_POLY
        return BivariatePolynomial(tuple((m, c * x) for m, x in self.terms))

    def pow(self, k: int) -> "BivariatePolynomial":
        out = constant(1)
        for _ in range(k):
            out = out * self
        return out

    def evaluate(self, point) -> Fraction:
        x, y = Fraction(point[0]), Fraction(point[1])
        total = _ZERO
        xpow: dict[int, Fraction] = {0: Fraction(1)}
        ypow: dict[int, Fraction] = {0: Fraction(1)}
        for (n, m), c in self.terms:
            if n not in xpow:
                xpow[n] = x**n
            if m not in ypow:
                ypow[m] = y**m
            total += c * xpow[n] * ypow[m]
        return total

    def derivative(self, var: str) -> "BivariatePolynomial":
        out = {}
        for (n, m), c in self.terms:
            if var == "x" and n > 0:
                out[(n - 1, m)] = out.get((n - 1, m), _ZERO) + n * c
            elif var == "y" and m > 0:
                out[(n, m - 1)] = out.get((n, m - 1), _ZERO) + m * c
        return BivariatePolynomial.from_dict(out)

    def canonical(self) -> "BivariatePolynomial":
        """Primitive integer form with positive leading coefficient."""
        if self.is_zero:
            return self
        mult = lcm(*(c.denominator for _, c in self.terms))
        ints = [c.numerator * (mult // c.denominator) for _, c in self.terms]
        content = gcd(*ints)
        if ints[-1] < 0:
            content = -content
        return BivariatePolynomial(
            tuple((mon, Fraction(c // content)) for (mon, _), c in zip(self.terms, ints))
        )

    def text(self) -> str:
        """Exact text form: '+'-joined terms 'c*x^n*y^m' with rational c."""
        if self.is_zero:
            return "0"
        parts = []
        for (n, m), c in reversed(self.terms):
            factors = []
            if n > 0:
                factors.append("x" if n == 1 else f"x^{n}")
            if m > 0:
                factors.append("y" if m == 1 else f"y^{m}")
            if not factors or abs(c) != 1:
                factors.insert(0, str(abs(c)))
            term = "*".join(factors)
            parts.append(("- " if c < 0 else "+ ") + term)
        joined = " ".join(parts)
        return joined[2:] if joined.startswith("+ ") else "-" + joined[2:]

    def __str__(self):
        return self.text()


ZERO_POLY = BivariatePolynomial(())


def constant(c) -> BivariatePolynomial:
    return BivariatePolynomial.from_dict({(0, 0): Fraction(c)})


def monomial(n: int, m: int, c=1) -> BivariatePolynomial:
    return BivariatePolynomial.from_dict({(n, m): Fraction(c)})


X = monomial(1, 0)
Y = monomial(0, 1)

_TERM_RE = re.compile(
    r"^(?P<coef>\d+(?:/\d+)?)?"
    r"(?P<xpart>\*?x(?:\^(?P<xn>\d+))?)?"
    r"(?P<ypart>\*?y(?:\^(?P<ym>\d+))?)?$"
)


def parse_poly(text: str) -> BivariatePolynomial:
    """Parse the exact text form; inverse of BivariatePolynomial.text()."""
    s = text.replace(" ", "")
    if not s:
        raise InputFormatError("empty polynomial")
    s = s.replace("-", "+-")
    if s.startswith("+"):
        s = s[1:]
    out: dict = {}
    for chunk in s.split("+"):
        sign = 1
        if chunk.startswith("-"):
            sign, chunk = -1, chunk[1:]
        m = _TERM_RE.match(chunk) if chunk else None
        if not m or (m.group("coef") is None and m.group("xpart") is None and m.group("ypart") is None):
            raise InputFormatError(f"malformed polynomial term {chunk!r} in {text!r}")
        coef_s = m.group("coef")
        if coef_s is None:
            coef = Fraction(1)
        else:
            try:
                coef = Fraction(coef_s)
            except (ValueError, ZeroDivisionError) as exc:
                raise InputFormatError(f"bad rational {coef_s!r}: {exc}") from exc
        n = int(m.group("xn") or (1 if m.group("xpart") else 0))
        mm = int(m.group("ym") or (1 if m.group("ypart") else 0))
        out[(n, mm)] = out.get((n, mm), _ZERO) + sign * coef
    return BivariatePolynomial.from_dict(out)


# --- division and gcd ------------------------------------------------------
#
# The gcd code runs on a canonical integer form held densely, one list level
# per variable: a list over the y-degree whose entries are int lists over the
# x-degree.  Zero is 0 at every level and no list has a zero last entry, so a
# nonzero element's list length is its degree plus one.  The helpers below
# take an element of either level (Z[x] with int entries, or Z[x][y] with
# Z[x] entries), so the content gcds in Z[x] and the pseudo-remainder
# sequence in y share one code path.


def _trim(v: list):
    while v and not v[-1]:
        v.pop()
    return v or 0


def _neg(a):
    return -a if isinstance(a, int) else [_neg(c) for c in a]


def _add(a, b):
    if not a or not b:
        return a or b
    if isinstance(a, int):
        return a + b
    if len(a) < len(b):
        a, b = b, a
    return _trim([_add(c, e) for c, e in zip(a, b)] + a[len(b):])


def _mul(a, b):
    if not a or not b:
        return 0
    if isinstance(a, int):
        return a * b
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, e in enumerate(b):
            out[i + j] = _add(out[i + j], _mul(c, e))
    return out


def _scale(a: list, s):
    """a times s, an element of the level below a's."""
    return [_mul(c, s) for c in a]


def _submul(a, b: list, c, k: int):
    """a - c * t^k * b, with t the variable of b's level and c below it."""
    return _add(a, [0] * k + _scale(b, _neg(c)))


def _quo(a, b):
    """Exact quotient a / b in Z, Z[x] or Z[x][y]; ArithmeticError if inexact."""
    if not a:
        return 0
    if isinstance(a, int):
        q, r = divmod(a, b)
        if r:
            raise ArithmeticError(f"{b} does not divide {a}")
        return q
    q = [0] * (len(a) - len(b) + 1)
    while a:
        k = len(a) - len(b)
        if k < 0:
            raise ArithmeticError("inexact polynomial division")
        q[k] = _quo(a[-1], b[-1])
        a = _submul(a, b, q[k], k)
    return q


def _split(a: list):
    """(content, primitive part): the gcd of a's entries, and a over it."""
    content = 0
    for c in a:
        content = _gcd(content, c)
    return content, [_quo(c, content) for c in a]


def _gcd(a, b):
    """A gcd in Z, Z[x] or Z[x][y], up to sign (Knuth 4.6.1, Algorithm E).

    A list splits into its content (the gcd of its entries, one level down)
    and its primitive part; the primitive parts run one primitive
    pseudo-remainder sequence in the list's variable.
    """
    if not a or not b:
        return a or b
    if isinstance(a, int):
        return gcd(a, b)
    (ca, pa), (cb, pb) = _split(a), _split(b)
    if len(pa) < len(pb):
        pa, pb = pb, pa
    # stops at a zero pseudo-remainder, or at a primitive constant, which is 1
    while len(pb) > 1:
        r = pa
        while r and len(r) >= len(pb):
            r = _submul(_scale(r, pb[-1]), pb, r[-1], len(r) - len(pb))
        if not r:
            break
        pa, pb = pb, _split(r)[1]
    return _scale(pb, _gcd(ca, cb))


def _dense(p: BivariatePolynomial):
    """p's canonical integer form in the dense Z[x][y] layout."""
    out = [[0] * (p.degree + 1) for _ in range(p.degree + 1)]
    for (n, m), c in p.canonical().terms:
        out[m][n] = c.numerator
    return _trim([_trim(row) for row in out])


def _sparse(a: list) -> BivariatePolynomial:
    return BivariatePolynomial.from_dict(
        {(n, m): c for m, row in enumerate(a) if row for n, c in enumerate(row)}
    ).canonical()


def divides(g: BivariatePolynomial, p: BivariatePolynomial) -> bool:
    """Whether g divides p in Q[x, y]."""
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    try:
        _quo(_dense(p), _dense(g))
    except ArithmeticError:
        return False
    return True


def poly_gcd(p: BivariatePolynomial, q: BivariatePolynomial) -> BivariatePolynomial:
    """Canonical gcd in Q[x, y] via a primitive pseudo-remainder sequence in y."""
    if p.is_zero or q.is_zero:
        raise ValueError("gcd of zero polynomial")
    return _sparse(_gcd(_dense(p), _dense(q)))


def squarefree_radical(p: BivariatePolynomial) -> BivariatePolynomial:
    """p / gcd(p, p_x, p_y) through pseudo-remainder gcds: same zero set,
    squarefree, canonical."""
    if p.is_zero or p.is_constant:
        raise ValueError("radical requires degree >= 1")
    a = _dense(p)
    g = a
    for var in ("x", "y"):
        g = _gcd(g, _dense(p.derivative(var)))
    return _sparse(_quo(a, g))


@dataclass(frozen=True)
class PlaneCurve:
    """Projective class of a nonzero polynomial of degree >= 1.

    Equality and hashing go through the canonical squarefree radical, the
    package-wide curve identity.
    """

    representative: BivariatePolynomial
    radical: BivariatePolynomial

    @staticmethod
    def from_poly(p: BivariatePolynomial) -> "PlaneCurve":
        if p.is_zero or p.is_constant:
            raise ValueError("a plane curve needs a polynomial of degree >= 1")
        rep = p.canonical()
        return PlaneCurve(rep, squarefree_radical(rep))

    @property
    def degree(self) -> int:
        return self.representative.degree

    def contains(self, point) -> bool:
        return self.radical.evaluate(point) == 0

    def sort_key(self):
        return (self.radical.degree, self.radical.terms)

    def __eq__(self, other):
        return isinstance(other, PlaneCurve) and self.radical.terms == other.radical.terms

    def __hash__(self):
        return hash(self.radical.terms)

    def __str__(self):
        return self.representative.text()


def _degree_in(p: BivariatePolynomial, var: str) -> int:
    if p.is_zero:
        return -1
    idx = 0 if var == "x" else 1
    return max(mon[idx] for mon, _ in p.terms)


def rational_points_on_curve(curve: PlaneCurve, count: int, avoid=()) -> list:
    """Distinct exact rational points on a catalog curve.

    Supported carriers are curves whose radical is linear in one variable
    (lines, graphs y = q(x)/u(x), hyperbolas xy = c, sideways graphs);
    these have one point per parameter value, swept over 0, 1, -1, 2, ...
    """
    p = curve.radical
    avoid_set = {(Fraction(a[0]), Fraction(a[1])) for a in avoid}

    def sweep(solve):
        found = []
        t = 0
        steps = 0
        while len(found) < count:
            steps += 1
            if steps > 40 * (count + len(avoid_set) + 4):
                raise InvariantViolation(
                    "parameter sweep exhausted on a parametrizable curve",
                    {"curve": p.text(), "count": count},
                )
            tq = Fraction(t)
            t = -t if t > 0 else -t + 1
            pt = solve(tq)
            if pt is None or pt in avoid_set:
                continue
            found.append(pt)
        return found

    if _degree_in(p, "y") == 1:
        u = BivariatePolynomial.from_dict(
            {(n, 0): c for (n, m), c in p.terms if m == 1}
        )
        w = BivariatePolynomial.from_dict(
            {(n, 0): c for (n, m), c in p.terms if m == 0}
        )

        def solve_y(t):
            den = u.evaluate((t, 0))
            if den == 0:
                return None
            return (t, -w.evaluate((t, 0)) / den)

        return sweep(solve_y)
    if _degree_in(p, "x") == 1:
        u = BivariatePolynomial.from_dict(
            {(0, m): c for (n, m), c in p.terms if n == 1}
        )
        w = BivariatePolynomial.from_dict(
            {(0, m): c for (n, m), c in p.terms if n == 0}
        )

        def solve_x(t):
            den = u.evaluate((0, t))
            if den == 0:
                return None
            return (-w.evaluate((0, t)) / den, t)

        return sweep(solve_x)
    raise HypothesisViolation(
        "parametrizable curve (radical linear in x or in y)",
        f"curve {p.text()} is not in the parametrizable catalog",
    )


def sigma_fiber_count(component_degrees, d: int) -> int:
    """Number of exponent vectors (m_i >= 1) with sum m_i * deg_i <= d.

    This counts the polynomial classes of degree <= d sharing the zero set of
    a curve whose distinct irreducible components have the given degrees; the
    count never exceeds d^d.  A dynamic program over the budget, one pass
    of d + 1 sums per component, with no recursion.
    """
    degs = list(component_degrees)
    if not degs:
        raise HypothesisViolation("at least one component degree", "no degree given")
    if any(int(e) != e or e < 1 for e in degs):
        raise HypothesisViolation("component degrees >= 1", f"degrees {degs}")
    if d < 1:
        raise HypothesisViolation("d >= 1", f"d={d}")

    # f[b]: the count for the components from i on within budget b, from
    # f_k = 1 down; m_i >= 1 gives f_i(b) = f_i(b - deg_i) + f_(i+1)(b - deg_i)
    f = [1] * (d + 1)
    for g in map(int, reversed(degs)):
        prev, f = f, [0] * (d + 1)
        for b in range(g, d + 1):
            f[b] = f[b - g] + prev[b - g]
    result = f[d]
    if result > d**d:
        raise InvariantViolation(
            "class-count bound d^d exceeded",
            {"component_degrees": degs, "d": d, "count": result},
        )
    return result
