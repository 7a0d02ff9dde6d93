"""Slow, definition-level reimplementations used only for cross-validation.

Nothing here touches the hyperplane or flat machinery of the main modules:
curve determination is decided straight from its definition through
vanishing-space dimensions, and the basis conditions are re-derived with a
separate section enumeration.  The only shared vocabulary is the polynomial
type, since results must be compared as canonical radicals.  Elimination is
an independent plain Gauss over Fraction written for this module.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

from .bipoly import BivariatePolynomial, squarefree_radical
from .determined import PointConfiguration
from .errors import HypothesisViolation

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _monomials_upto(e: int):
    out = [(0, 0)]
    for total in range(1, e + 1):
        for n in range(total, -1, -1):
            out.append((n, total - n))
    return out


def _row(point, mons):
    x, y = Fraction(point[0]), Fraction(point[1])
    return [x**n * y**m for n, m in mons]


def _gauss(rows):
    """Forward elimination; returns (pivot count, reduced rows, pivot cols)."""
    mat = [list(r) for r in rows]
    if not mat:
        return 0, [], []
    n_cols = len(mat[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][c]
        mat[r] = [v / inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return len(pivots), mat[: len(pivots)], pivots


def _vanishing_basis(points, e):
    """Solution basis of 'polynomial of degree <= e vanishes on points'."""
    mons = _monomials_upto(e)
    n_cols = len(mons)
    rk, reduced, pivots = _gauss([_row(p, mons) for p in points])
    pivot_set = set(pivots)
    basis = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        v = [_ZERO] * n_cols
        v[free] = _ONE
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][free]
        basis.append(v)
    return mons, basis


def _basis_poly(mons, vec) -> BivariatePolynomial:
    return BivariatePolynomial.from_dict(
        {mon: c for mon, c in zip(mons, vec) if c != 0}
    )


def oracle_determined(A: PointConfiguration, d: int | None = None) -> frozenset:
    """Radicals of the degree-d curves determined by A, by brute force.

    A curve is determined exactly when the degree-<=d vanishing space of its
    full incidence with A is one line of polynomials (any lower-degree
    element could be padded by two different A-avoiding lines, and a second
    independent degree-d element would be another curve through the same
    incidence).
    """
    d = A.d if d is None else d
    mons = _monomials_upto(d)
    if len(_vanishing_basis(A.points, d)[1]) > 0:
        raise HypothesisViolation(
            "A not contained in a degree-<=d curve", "whole set lies on a curve"
        )
    found = set()
    min_size = comb(d + 2, 2) - 1
    for size in range(min_size, len(A) + 1):
        for idx in combinations(range(len(A)), size):
            mons_s, basis = _vanishing_basis([A.points[i] for i in idx], d)
            if len(basis) != 1:
                continue
            candidate = _basis_poly(mons_s, basis[0])
            incidence = [
                i for i in range(len(A)) if candidate.evaluate(A.points[i]) == 0
            ]
            _, full_basis = _vanishing_basis([A.points[i] for i in incidence], d)
            if len(full_basis) != 1:
                continue
            found.add(squarefree_radical(candidate))
    return frozenset(found)


def oracle_max_richness(A: PointConfiguration, e: int):
    """Largest |A & C| over curves C of degree <= e, by a top-down subset scan.

    A subset lies on such a curve exactly when its degree-<=e vanishing
    space is nonzero.  Sizes are tried from |A| down and subsets in
    `combinations` order, so the witness is the lexicographically first
    richest section.
    """
    if e < 1:
        raise HypothesisViolation("e >= 1", f"e={e}")
    for size in range(len(A), 0, -1):
        for idx in combinations(range(len(A)), size):
            if _vanishing_basis([A.points[i] for i in idx], e)[1]:
                return size, idx


def _oracle_section_exists(points_in, points_out, e):
    """Is there a curve of degree exactly e through points_in avoiding points_out?

    Degree-exactly-e sections coincide with degree-<=e sections after
    padding by a faraway line, so this tests the degree-<=e space: it must
    hold a nonconstant element, and adjoining any excluded point must cut
    the space down.
    """
    _, basis = _vanishing_basis(points_in, e)
    dim_in = len(basis)
    if dim_in == 0:
        return False
    if not points_in and dim_in <= 1:
        return False
    for q in points_out:
        _, with_q = _vanishing_basis(list(points_in) + [q], e)
        if len(with_q) >= dim_in:
            return False
    return True


def oracle_nd(A: PointConfiguration | None, B, d: int) -> bool:
    """Re-derivation of the four basis conditions from their statements."""
    if isinstance(B, (list, tuple)) and B and all(isinstance(i, int) for i in B):
        if A is None:
            raise HypothesisViolation(
                "index basis needs a configuration", f"B = {list(B)} is an index list and A is None"
            )
        pts = [A.points[i] for i in B]
    else:
        pts = [
            (Fraction(p[0]), Fraction(p[1]))
            for p in (B.points if hasattr(B, "points") else B)
        ]
    if len(pts) != comb(d + 2, 2) - 3:
        raise HypothesisViolation(
            "|B| = C(d+2,2)-3", f"got {len(pts)} at d={d}"
        )
    if len(set(pts)) != len(pts):
        raise HypothesisViolation("distinct basis points", "duplicate point")

    # condition i: lifted points affinely independent at degree d
    # (the leading monomial (0,0) makes each row a homogenized lift)
    rk, _, _ = _gauss([_row(p, _monomials_upto(d)) for p in pts])
    if rk - 1 != comb(d + 2, 2) - 4:
        return False

    for e in range(1, d):
        cut = comb(d + 2, 2) - comb(d - e + 2, 2)
        for size in range(len(pts) + 1):
            for idx in combinations(range(len(pts)), size):
                inside = [pts[i] for i in idx]
                outside = [pts[i] for i in range(len(pts)) if i not in idx]
                if not _oracle_section_exists(inside, outside, e):
                    continue
                if size >= cut:
                    return False
                rk, _, _ = _gauss([_row(p, _monomials_upto(d - e)) for p in outside])
                dim_rest = rk - 1
                if size == cut - 1 and dim_rest != comb(d - e + 2, 2) - 3:
                    return False
                if size < cut - 1 and dim_rest <= comb(d - e + 2, 2) - 3:
                    return False
    return True


class OracleReport:
    __slots__ = ("instance", "quantity", "oracle_value", "main_value")

    def __init__(self, instance: str, quantity: str, oracle_value: object, main_value: object):
        self.instance = instance
        self.quantity = quantity
        self.oracle_value = oracle_value
        self.main_value = main_value

    @property
    def agree(self) -> bool:
        return self.oracle_value == self.main_value

    def to_json_obj(self):
        return {
            "instance": self.instance,
            "quantity": self.quantity,
            "oracle": _render(self.oracle_value),
            "main": _render(self.main_value),
            "agree": self.agree,
        }


def _render(value):
    if isinstance(value, frozenset):
        return sorted(
            p.text() if isinstance(p, BivariatePolynomial) else str(p) for p in value
        )
    return value


def compare_determined(A: PointConfiguration, main_set, instance: str = "") -> OracleReport:
    """Radical-set agreement between the main enumeration and the oracle."""
    main_radicals = frozenset(rec.curve.radical for rec in main_set.records)
    oracle_radicals = oracle_determined(A)
    return OracleReport(instance, "determined_radicals", oracle_radicals, main_radicals)
