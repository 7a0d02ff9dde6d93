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

    def coefficient(self, n: int, m: int) -> Fraction:
        return self.as_dict().get((n, m), _ZERO)

    def leading(self) -> tuple[Monomial, Fraction]:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[-1]

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


def poly_divmod(p: BivariatePolynomial, g: BivariatePolynomial):
    """Divide by a single polynomial in graded lex order; returns (q, r).

    A single divisor is a Groebner basis of the ideal it generates, so r = 0
    exactly when g divides p.
    """
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    (gn, gm), gc = g.leading()
    q: dict = {}
    r: dict = {}
    work = p.as_dict()
    while work:
        mon = max(work, key=_term_key)
        c = work.pop(mon)
        n, m = mon
        if n >= gn and m >= gm:
            fac_mon = (n - gn, m - gm)
            fac = c / gc
            q[fac_mon] = q.get(fac_mon, _ZERO) + fac
            for (tn, tm), tc in g.terms:
                key = (tn + fac_mon[0], tm + fac_mon[1])
                if key == mon:
                    continue
                nv = work.get(key, _ZERO) - fac * tc
                if nv == 0:
                    work.pop(key, None)
                else:
                    work[key] = nv
        else:
            r[mon] = c
    return BivariatePolynomial.from_dict(q), BivariatePolynomial.from_dict(r)


def divides(g: BivariatePolynomial, p: BivariatePolynomial) -> bool:
    return poly_divmod(p, g)[1].is_zero


def exact_quotient(p: BivariatePolynomial, g: BivariatePolynomial) -> BivariatePolynomial:
    if g.degree == 0:
        return p.scale(1 / g.terms[0][1])
    q, r = poly_divmod(p, g)
    if not r.is_zero:
        raise InvariantViolation(
            "exact division with nonzero remainder",
            {"p": p.text(), "g": g.text()},
        )
    return q


# univariate helpers on dict degree -> Fraction (polynomials in x)


def _univ_normalize(u: dict) -> dict:
    return {k: v for k, v in u.items() if v != 0}


def _univ_degree(u: dict) -> int:
    return max(u) if u else -1


def _univ_divmod(a: dict, b: dict):
    if not b:
        raise ZeroDivisionError
    a = dict(a)
    q: dict = {}
    db, lb = _univ_degree(b), b[_univ_degree(b)]
    while a and _univ_degree(a) >= db:
        da, la = _univ_degree(a), a[_univ_degree(a)]
        f = la / lb
        q[da - db] = f
        for j, c in b.items():
            key = da - db + j
            nv = a.get(key, _ZERO) - f * c
            if nv == 0:
                a.pop(key, None)
            else:
                a[key] = nv
    return q, a


def _univ_gcd(a: dict, b: dict) -> dict:
    a, b = _univ_normalize(a), _univ_normalize(b)
    while b:
        a, b = b, _univ_divmod(a, b)[1]
    if not a:
        return {}
    lead = a[_univ_degree(a)]
    return {k: v / lead for k, v in a.items()}


def _to_y_coeffs(p: BivariatePolynomial) -> dict:
    """Represent p as a map deg_y -> (univariate poly in x as dict)."""
    out: dict = {}
    for (n, m), c in p.terms:
        out.setdefault(m, {})[n] = c
    return out


def _from_y_coeffs(yc: dict) -> BivariatePolynomial:
    out = {}
    for m, u in yc.items():
        for n, c in u.items():
            out[(n, m)] = c
    return BivariatePolynomial.from_dict(out)


def _content_y(p: BivariatePolynomial) -> BivariatePolynomial:
    """gcd in Q[x] of the Q[x]-coefficients of p viewed in (Q[x])[y]."""
    yc = _to_y_coeffs(p)
    g: dict = {}
    for u in yc.values():
        g = _univ_gcd(g, u)
        if _univ_degree(g) == 0:
            break  # a monic constant: the content is 1
    return BivariatePolynomial.from_dict({(n, 0): c for n, c in g.items()})


def _pseudo_rem_y(p: BivariatePolynomial, g: BivariatePolynomial) -> BivariatePolynomial:
    """Pseudo-remainder of p by g in (Q[x])[y]."""
    yp, yg = _to_y_coeffs(p), _to_y_coeffs(g)
    dg = max(yg)
    lg = _from_y_coeffs({0: yg[dg]})
    r = p
    while not r.is_zero:
        yr = _to_y_coeffs(r)
        dr = max(yr)
        if dr < dg:
            break
        lr = _from_y_coeffs({0: yr[dr]})
        shift_g = BivariatePolynomial.from_dict(
            {(n, m + dr - dg): c for (n, m), c in g.terms}
        )
        r = lg * r - lr * shift_g
    return r


def poly_gcd(p: BivariatePolynomial, q: BivariatePolynomial) -> BivariatePolynomial:
    """Primitive gcd in Q[x, y] via a primitive pseudo-remainder sequence in y."""
    if p.is_zero or q.is_zero:
        raise ValueError("gcd of zero polynomial")
    dp = max(m for (_, m), _ in p.terms)
    dq = max(m for (_, m), _ in q.terms)
    if dp == 0 and dq == 0:
        g = _univ_gcd(_to_y_coeffs(p).get(0, {}), _to_y_coeffs(q).get(0, {}))
        return BivariatePolynomial.from_dict({(n, 0): c for n, c in g.items()}).canonical()
    if dp == 0:
        return poly_gcd(q, p)
    if dq == 0:
        # a pure-x polynomial divides p iff it divides every y-coefficient
        return poly_gcd(_content_y(p), q)
    cont_p, cont_q = _content_y(p), _content_y(q)
    cont_gcd = poly_gcd(cont_p, cont_q)
    a = exact_quotient(p, cont_p).canonical()
    b = exact_quotient(q, cont_q).canonical()
    if max(m for (_, m), _ in a.terms) < max(m for (_, m), _ in b.terms):
        a, b = b, a
    while True:
        r = _pseudo_rem_y(a, b)
        if r.is_zero:
            g = b
            break
        if max((m for (_, m), _ in r.terms), default=0) == 0:
            g = constant(1)
            break
        a, b = b, exact_quotient(r, _content_y(r)).canonical()
    g = exact_quotient(g, _content_y(g)).canonical()
    return (cont_gcd * g).canonical()


def squarefree_radical(p: BivariatePolynomial) -> BivariatePolynomial:
    """p / gcd(p, p_x, p_y) through pseudo-remainder gcds: same zero set,
    squarefree, canonical."""
    if p.is_zero or p.is_constant:
        raise ValueError("radical requires degree >= 1")
    g = p
    for var in ("x", "y"):
        dv = p.derivative(var)
        if not dv.is_zero:
            g = poly_gcd(g, dv)
            if g.is_constant:
                break
    return exact_quotient(p, g).canonical()


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
    count never exceeds d^d.
    """
    degs = list(component_degrees)
    if not degs:
        raise HypothesisViolation("at least one component degree", "no degree given")
    if any(int(e) != e or e < 1 for e in degs):
        raise HypothesisViolation("component degrees >= 1", f"degrees {degs}")
    if d < 1:
        raise HypothesisViolation("d >= 1", f"d={d}")

    def count(i: int, budget: int) -> int:
        if i == len(degs):
            return 1
        rest_min = sum(degs[i + 1 :])
        total = 0
        m = 1
        while m * degs[i] + rest_min <= budget:
            total += count(i + 1, budget - m * degs[i])
            m += 1
        return total

    result = count(0, d)
    if result > d**d:
        raise InvariantViolation(
            "class-count bound d^d exceeded",
            {"component_degrees": degs, "d": d, "count": result},
        )
    return result
