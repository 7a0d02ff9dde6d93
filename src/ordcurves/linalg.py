"""Exact linear algebra over the integers and the rationals.

The determined-curve scan lives on integer matrices.  One fraction-free
(Bareiss 1968) forward elimination serves both `rank` and
`primitive_kernel`: every entry it produces is a minor of the input, so all
of its divisions are exact and no `Fraction` is ever built.  `rank` accepts
rational rows too and clears each row's denominators first, which keeps the
rank.

Nullspaces of general matrices and affine flats use plain Gauss-Jordan over
`fractions.Fraction` (`rref`); at the sizes the basis and projection code
sees (tens of rows, entries of modest height) that is exact and fast enough.

Affine flats follow the convention dim(empty) = -1.  Directions of a flat
are stored as the reduced row echelon basis of its direction space, which
makes membership reduction and downstream dedup deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_fraction_vector(row) -> Vector:
    return tuple(x if isinstance(x, Fraction) else Fraction(x) for x in row)


def _integer_rows(rows):
    """Scale each row by the lcm of its denominators (rank-preserving)."""
    out = []
    for row in rows:
        row = _as_fraction_vector(row)
        mult = lcm(*(x.denominator for x in row)) if row else 1
        out.append([int(x * mult) for x in row])
    return out


def _bareiss(mat) -> list[int]:
    """Fraction-free row echelon form of an integer matrix, in place.

    Returns the pivot columns.  After the step at pivot r, every entry of
    the rows below is an (r+2)-minor of the row-permuted input, so the
    division by the previous pivot is exact.
    """
    n_rows = len(mat)
    pivots: list[int] = []
    prev = 1
    for c in range(len(mat[0])):
        r = len(pivots)
        pivot_row = next((i for i in range(r, n_rows) if mat[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        top = mat[r]
        pivot = top[c]
        for i in range(r + 1, n_rows):
            a = mat[i][c]
            if a:
                mat[i] = [(x * pivot - a * y) // prev for x, y in zip(mat[i], top)]
            elif pivot != prev:
                mat[i] = [x * pivot // prev for x in mat[i]]
        prev = pivot
        pivots.append(c)
        if r + 1 == n_rows:
            break
    return pivots


def rank(rows) -> int:
    """Exact rank of a rectangular matrix via Bareiss elimination."""
    rows = list(rows)
    if {int}.issuperset(map(type, chain.from_iterable(rows))):
        mat = [list(row) for row in rows]
    else:
        mat = _integer_rows(rows)
    if not mat or not mat[0]:
        return 0
    return len(_bareiss(mat))


def primitive_kernel(rows) -> tuple[int, ...] | None:
    """Primitive integer kernel vector of a k x (k+1) integer matrix of rank k.

    The vector has content 1 and a positive first nonzero entry, so it is
    the canonical generator of the one-dimensional kernel.  Returns None
    when the rank is below k.  Back-substitution starts from the last
    Bareiss pivot D, which is +-det of the pivot columns: by Cramer's rule
    the kernel vector with D in the free column is integral, so each
    division below is exact.
    """
    mat = [list(row) for row in rows]
    k = len(mat)
    if not k or any(len(row) != k + 1 for row in mat):
        raise ValueError("primitive_kernel needs a k x (k+1) matrix with k >= 1")
    pivots = _bareiss(mat)
    if len(pivots) < k:
        return None
    free = next((c for c, p in enumerate(pivots) if c != p), k)
    v = [0] * (k + 1)
    v[free] = mat[k - 1][pivots[-1]]
    for i in range(k - 1, -1, -1):
        c = pivots[i]
        row = mat[i]
        v[c] = -sum(row[j] * v[j] for j in range(c + 1, k + 1)) // row[c]
    g = gcd(*v)
    if next(x for x in v if x) < 0:
        g = -g
    return tuple(x // g for x in v)


def rref(rows):
    """Reduced row echelon form over Fraction.

    Returns (reduced nonzero rows, pivot column list).
    """
    mat = [list(_as_fraction_vector(row)) for row in rows]
    if not mat or not mat[0]:
        return [], []
    n_rows, n_cols = len(mat), len(mat[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(n_rows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return [tuple(mat[i]) for i in range(r)], pivots


def nullspace(rows, n_cols=None) -> list[Vector]:
    """Canonical basis of the right nullspace.

    Basis vectors are listed in ascending free-column order and scaled so
    the first nonzero coordinate of each is 1.  `n_cols` is only needed for
    a matrix with no rows (whose nullspace is all of Q^n_cols).
    """
    rows = [_as_fraction_vector(r) for r in rows]
    if not rows:
        if n_cols is None:
            raise ValueError("column count required for an empty matrix")
    else:
        n_cols = len(rows[0])
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        v = [_ZERO] * n_cols
        v[free] = _ONE
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][free]
        first = next(x for x in v if x != 0)
        basis.append(tuple(x / first for x in v))
    return basis


def vec_sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def vec_dot(a: Vector, b: Vector) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), _ZERO)


@dataclass(frozen=True)
class AffineFlat:
    """Affine subspace of Q^n: basepoint + span(directions); empty if no basepoint.

    `directions` is the RREF basis of the direction space, so reducing a
    vector against it decides membership in one pass.
    """

    ambient_dim: int
    basepoint: Vector | None
    directions: tuple[Vector, ...]

    def __post_init__(self):
        if self.basepoint is None and self.directions:
            raise ValueError("empty flat cannot carry directions")

    @property
    def dim(self) -> int:
        return -1 if self.basepoint is None else len(self.directions)

    @property
    def is_empty(self) -> bool:
        return self.basepoint is None

    def _reduce(self, v: Vector) -> Vector:
        pivots = [next(j for j, x in enumerate(d) if x != 0) for d in self.directions]
        for d, p in zip(self.directions, pivots):
            if v[p] != 0:
                v = tuple(a - v[p] * b for a, b in zip(v, d))
        return v

    def contains(self, z) -> bool:
        z = _as_fraction_vector(z)
        if len(z) != self.ambient_dim:
            raise ValueError(
                f"ambient dimension mismatch: flat lives in Q^{self.ambient_dim}, point in Q^{len(z)}"
            )
        if self.is_empty:
            return False
        return all(x == 0 for x in self._reduce(vec_sub(z, self.basepoint)))

    def extended(self, points) -> "AffineFlat":
        """Smallest flat containing self and the given points."""
        points = [_as_fraction_vector(p) for p in points]
        if not points:
            return self
        if self.is_empty:
            return flat_span(points, self.ambient_dim)
        new_dirs = list(self.directions)
        for p in points:
            ds, _ = rref(new_dirs + [vec_sub(p, self.basepoint)])
            new_dirs = list(ds)
        return AffineFlat(self.ambient_dim, self.basepoint, tuple(new_dirs))

    def equations(self):
        """Basis of affine functionals (c0, c) with c0 + c.z = 0 on the flat.

        Only defined for nonempty flats; returns ambient_dim - dim functionals.
        """
        if self.is_empty:
            raise ValueError("empty flat has no canonical equation system")
        if self.dim == self.ambient_dim:
            return []
        if self.directions:
            normals = nullspace(list(self.directions))
        else:
            normals = [
                tuple(_ONE if j == i else _ZERO for j in range(self.ambient_dim))
                for i in range(self.ambient_dim)
            ]
        return [(-vec_dot(c, self.basepoint), c) for c in normals]


def empty_flat(ambient_dim: int) -> AffineFlat:
    return AffineFlat(ambient_dim, None, ())


def flat_span(points, ambient_dim=None) -> AffineFlat:
    """Smallest affine flat containing the given points (Fl of the set)."""
    points = [_as_fraction_vector(p) for p in points]
    if not points:
        if ambient_dim is None:
            raise ValueError("ambient dimension required for the empty flat")
        return empty_flat(ambient_dim)
    n = len(points[0])
    if ambient_dim is not None and ambient_dim != n:
        raise ValueError("ambient dimension mismatch")
    base = points[0]
    dirs, _ = rref([vec_sub(p, base) for p in points[1:]]) if len(points) > 1 else ([], [])
    return AffineFlat(n, base, tuple(dirs))


def flat_from_equations(ambient_dim: int, equations) -> AffineFlat:
    """Flat cut out by affine functionals (c0, c): {z : c0 + c.z = 0 for all}."""
    equations = [(Fraction(c0), _as_fraction_vector(c)) for c0, c in equations]
    if not equations:
        base = tuple(_ZERO for _ in range(ambient_dim))
        dirs = tuple(
            tuple(_ONE if j == i else _ZERO for j in range(ambient_dim))
            for i in range(ambient_dim)
        )
        return AffineFlat(ambient_dim, base, dirs)
    aug = [tuple(c) + (c0,) for c0, c in equations]
    reduced, pivots = rref(aug)
    if ambient_dim in pivots:
        return empty_flat(ambient_dim)
    base = [_ZERO] * ambient_dim
    for r, c in enumerate(pivots):
        base[c] = -reduced[r][ambient_dim]
    kernel = nullspace([tuple(c) for _, c in equations])
    dirs, _ = rref(kernel) if kernel else ([], [])
    return AffineFlat(ambient_dim, tuple(base), tuple(dirs))


def flat_intersection(a: AffineFlat, b: AffineFlat) -> AffineFlat:
    """Intersection of two flats in the same ambient space (possibly empty)."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if a.is_empty or b.is_empty:
        return empty_flat(a.ambient_dim)
    return flat_from_equations(a.ambient_dim, a.equations() + b.equations())


def affine_rank(points) -> int:
    """Number of affinely independent points = dim Fl(points) + 1."""
    points = [_as_fraction_vector(p) for p in points]
    return rank([(1,) + p for p in points])
