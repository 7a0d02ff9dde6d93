"""The depth-first walk of a row matroid's flats, kept as the tests'
reference for the package's one flats walk, the `linalg.flats_step` fold,
and the heavy point sets the fold and the grower's walk are checked on."""

import random
from fractions import Fraction

from ordcurves.linalg import _eliminate, kernel_root


def flats(rows, n_cols: int, max_rank: int) -> dict:
    """The flats of rank at most max_rank of the row matroid of integer rows:
    each flat's closure, an ascending index tuple, maps to the kernel basis
    of the node that reached it, as `kernel_step` left it, as a tuple of
    tuples so that callers sharing it cannot change it.

    A lexicographic DFS over the independent row subsets on the kernel-side
    elimination.  Each kernel vector carries its dots with every row as
    extra columns, updated by the same formula (`_eliminate`), so a node's
    closure, the rows orthogonal to every vector of its basis, is a zero
    test on the carried dots, and a child's dots s_i are read off them.
    Only rows outside the closure extend the node.  The elimination takes
    the first free column with a nonzero dot, so the basis keeps the
    echelon form's free columns: each vector made primitive, it is `kernel`
    of the closure's rows.  The first independent set with a given closure
    in lexicographic order is the closure's greedy basis, and a prefix of a
    greedy basis is a greedy basis too, so the subtree of a node whose
    closure was already reached holds no new flat and is skipped.
    """
    n_rows = len(rows)
    identity, _ = kernel_root(n_cols)
    root = [k + [row[c] for row in rows] for c, k in enumerate(identity)]
    out: dict = {}
    stack = [((root, 1), 0, 0)]
    while stack:
        (basis, pivot), start, depth = stack.pop()
        dots = [k[n_cols:] for k in basis]
        outside = [any(col) for col in zip(*dots)] if basis else [False] * n_rows
        closure = tuple(j for j, x in enumerate(outside) if not x)
        if closure in out:
            continue
        out[closure] = tuple(tuple(k[:n_cols]) for k in basis)
        if depth < max_rank:
            for i in range(n_rows - 1, start - 1, -1):
                if outside[i]:
                    child = _eliminate(basis, pivot, [s[i] for s in dots])
                    stack.append((child, i + 1, depth + 1))
    return out


def _big(rng):
    return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))


def heavy_points(seed, curve, k, free):
    """k points of height up to 10^6 on one rational line, parabola (a
    conic) or cubic y = q(x), then `free` random points, shuffled so the
    curve's points are spread through the row order."""
    rng = random.Random(seed)
    degree = {"line": 1, "conic": 2, "cubic": 3}[curve]
    coeffs = [_big(rng) for _ in range(degree + 1)]
    pts = set()
    while len(pts) < k:
        t = _big(rng)
        pts.add((t, sum(c * t**i for i, c in enumerate(coeffs))))
    while len(pts) < k + free:
        pts.add((_big(rng), _big(rng)))
    pts = sorted(pts)
    rng.shuffle(pts)
    return pts
