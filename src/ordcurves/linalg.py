"""Exact linear algebra over the integers and the rationals.

Everything rests on one fraction-free elimination, Bareiss (1968) run on
the kernel side (`_eliminate`): a node holds an integer kernel basis of a
prefix of rows, and `kernel_step` extends it by one row.  Every entry is a
minor of the input, so all of its divisions are exact and no `Fraction` is
ever built.  Rational rows are scaled by the lcm of their denominators
first, which keeps the row space.  Folding a matrix's rows through the step
gives its `rank` and its primitive kernel basis (`kernel`).
`hyperplane_leaves` walks the step over the N-subsets of a row list with a
given least index as a prefix tree, N one less than the row length,
skipping every subtree with a dependent prefix or with too few independent
rows left to complete it.  It stops at the nets, the nodes two levels above
the leaves, whose bases have three vectors: each later row is dotted with
them once, and each pair of later rows gives its leaf's kernel vector by a
cross product of those dots, with no further elimination.
`spanned_vectors`, the determined-curve scan, is one such walk from every
first index that can complete an N-subset, into one map from each curve's
primitive vector to its incidence, both read off the nets; the samplers'
span guard walks only the leaves through its new row.
`flats` walks the same tree over the independent subsets, each kernel
vector carrying its dots with every row, and reads off each flat of the row
matroid (Oxley, Matroid Theory, ch. 1) with the raw kernel basis of the
node that reached it; the basis verifier's sections and the exceptional
catalog are built on it.  For a growing row list, `flats_step` turns the
walk of the rows so far into the walk with one more row in one pass over
its flats, the same flats with the same bases, each flat also carrying the
kernel node of its complement's rows in a second row list; the grower
reads its forbidden regions off those kernel bases.  `prefix_kernels`
gives the kernel node of any index tuple, one step from the memoized node
of its prefix; the verifier's complement spans are built on it.  `nullspace` is the Fraction
view of `kernel`, through `normalized`, the package's one
first-nonzero-is-1 scaling; `normalized_key` sorts primitive vectors in the
order of their normalized forms by integer arithmetic.

An affine flat of Q^n is held as integer homogeneous data: spanning rows,
each a positive multiple of (1, z) for a point z of the flat, and a kernel
basis of them, which are the flat's equations (c0, *c) of c0 + c.z = 0, the
row layout `equation_rows` takes.  Membership is integer dot products
with those equations.  Flats follow the convention dim(empty) = -1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from itertools import chain
from math import gcd, lcm
from operator import mul

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)


def _integer_row(row) -> list[int]:
    """The rational row times the lcm of its denominators."""
    row = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    mult = lcm(*(x.denominator for x in row)) if row else 1
    return [x.numerator * (mult // x.denominator) for x in row]


def _integer_matrix(rows, n_cols: int) -> list:
    """Integer rows with the same row space; int rows are kept as given.

    Raises ValueError on a row whose length is not n_cols.
    """
    rows = list(rows)
    for row in rows:
        if len(row) != n_cols:
            raise ValueError(f"ragged matrix: a row of length {len(row)} in {n_cols} columns")
    if {int}.issuperset(map(type, chain.from_iterable(rows))):
        return rows
    return [_integer_row(row) for row in rows]


def _primitive(v) -> tuple[int, ...]:
    """A nonzero integer vector divided by its content, first nonzero entry positive."""
    g = gcd(*v)
    for x in v:
        if x:
            break
    if x < 0:
        g = -g
    return tuple([x // g for x in v])


def primitive(vec) -> tuple[int, ...]:
    """The primitive integer vector with positive first nonzero entry on the
    line of a nonzero rational vector."""
    return _primitive(_integer_row(vec))


def kernel_node(rows, n_cols: int):
    """The kernel node of a rational matrix: its integer rows folded
    through `kernel_step` from `kernel_root`, a dependent row keeping the
    node, until the basis is empty.

    One vector per free column, in ascending order: the step eliminates the
    first free column with a nonzero dot, so the free columns are those of
    the echelon form, and each vector is zero on the other free columns.
    """
    node = kernel_root(n_cols)
    for row in _integer_matrix(rows, n_cols):
        if not node[0]:
            break
        node = kernel_step(node, row) or node
    return node


def rank(rows) -> int:
    """Exact rank of a rectangular matrix: the column count less the
    kernel's dimension."""
    rows = list(rows)
    n_cols = len(rows[0]) if rows else 0
    return n_cols - len(kernel_node(rows, n_cols)[0])


def kernel(rows, n_cols: int) -> list[tuple[int, ...]]:
    """Primitive integer basis of the right kernel of a rational matrix.

    One vector per free column in ascending order: it is zero on the other
    free columns, has content 1 and a positive first nonzero entry.
    `n_cols` is the column count, which a matrix with no rows cannot give.
    """
    return [_primitive(v) for v in kernel_node(rows, n_cols)[0]]


def kernel_root(n_cols: int):
    """The kernel node of no rows: the identity basis of Z^n_cols, pivot 1."""
    return [[int(i == j) for j in range(n_cols)] for i in range(n_cols)], 1


def kernel_step(node, row):
    """The kernel node of a prefix of rows extended by one more row.

    A node (basis, pivot) holds a kernel basis of its prefix: one vector per
    free column, zero on the other free columns, and equal to the pivot on
    its own.  Returns None when the row lies in the prefix's span, and so
    does every extension (`_eliminate`).
    """
    basis, pivot = node
    return _eliminate(basis, pivot, [sum(map(mul, k, row)) for k in basis])


def _eliminate(basis, pivot, dots):
    """The child of the node (basis, pivot) for a row with the dots
    s_i = k_i.row.

    With the first k_p with s_p != 0, the child keeps (s_p k_i - s_i k_p) /
    pivot for every i != p, all orthogonal to the row, and s_p is the
    child's pivot.  This is Bareiss elimination on the kernel side: by
    Cramer's rule each vector is the integral kernel vector whose own free
    column holds the pivot, a minor of the prefix, so the division is exact.
    The formula is linear, so columns appended to the vectors, such as their
    dots with other rows, are carried along exactly.  None when every s_i
    is 0.
    """
    p = next((i for i, s in enumerate(dots) if s), None)
    if p is None:
        return None
    kp, sp = basis[p], dots[p]
    return [
        [(sp * a - s * b) // pivot for a, b in zip(k, kp)]
        for i, (k, s) in enumerate(zip(basis, dots)) if i != p
    ], sp


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


def flats_root(n_cols: int, co_cols: int) -> dict:
    """The flats walk of no rows, to be grown one row at a time by
    `flats_step`: the empty closure with the identity basis, pivot 1 and
    the `kernel_root` of the co-rows."""
    basis, pivot = kernel_root(n_cols)
    return {(): (basis, pivot, kernel_root(co_cols))}


def flats_step(walk: dict, m: int, row, co_row) -> dict:
    """The flats walk of rows[:m] extended by row = rows[m].

    A walk maps each flat, an ascending index tuple, to its node (basis,
    pivot, co-node): the basis is the one `flats` gives the closure with
    max_rank the column count, each vector carrying its dots with every row
    so far, and the co-node is the `kernel_step` node of the complement's
    co-rows in index order.  The new row is dotted with every basis and the
    dot appended to each vector, in place, so the given walk is spent.  A
    flat whose dots are all 0 gains m.  Any other flat stays, its co-node
    stepped by co_row, and its `_eliminate` child by the row is a new flat
    exactly when the child's closure less m is the flat itself, with the
    flat's co-node from before the step.  That flat is the prefix of the
    new flat's greedy basis, as m comes last (the greedy-basis argument at
    `flats`), so every flat of rows[:m+1] arises once, with the basis and
    co-node `flats` and `prefix_kernels` give it.
    """
    n_cols = len(row)
    out = {}
    for closure, (basis, pivot, co_node) in walk.items():
        # map stops at the row's end, so the carried dots are left out
        dots = [sum(map(mul, k, row)) for k in basis]
        for k, s in zip(basis, dots):
            k.append(s)
        if not any(dots):
            out[closure + (m,)] = basis, pivot, co_node
            continue
        out[closure] = basis, pivot, kernel_step(co_node, co_row) or co_node
        child, sp = _eliminate(basis, pivot, dots)
        # the child's closure holds the flat and m, and no more exactly
        # when each of the other m - |closure| rows has a nonzero dot
        if sum(map(any, zip(*[k[n_cols:] for k in child]))) == m - len(closure):
            out[closure + (m,)] = child, sp, co_node
    return out


def prefix_kernels(rows, n_cols: int):
    """The kernel node of any index tuple of the rows, as a function of the
    tuple.

    Each node is `kernel_step` on the node of the tuple without its last
    index, memoized by prefix, so tuples that share a prefix share its
    elimination; a dependent row keeps the parent node.  The node's basis
    has n_cols less the rows' rank vectors, and made primitive it is
    `kernel` of the rows, whatever their order: the step eliminates the
    first free column with a nonzero dot, so each vector's last nonzero
    entry is its free column.
    """
    memo = {(): kernel_root(n_cols)}

    def node(idx):
        got = memo.get(idx)
        if got is None:
            parent = node(idx[:-1])
            got = memo[idx] = kernel_step(parent, rows[idx[-1]]) or parent
        return got

    return node


def hyperplane_leaves(rows, first: int, ranks=None):
    """The kernel vector of each independent N-subset of the rows whose
    least index is `first`, N one less than the row length, as (v, c, net).

    A lexicographic prefix-tree DFS on `kernel_step` (Knuth, TAOCP 4A
    7.2.1.3) from the node of rows[first] down to the nets, the nodes of N-2
    rows, two levels above the leaves.  A child whose row reduces its
    parent's basis to zero has a dependent prefix, and a child on row i at
    depth k cannot be completed from the rows left when rank(rows[i:]) =
    ranks[i] is below N - k; either subtree is skipped.  `ranks` holds
    rank(rows[i:]) for every i up to len(rows), where it is 0; without it
    only the count of rows left bounds the walk.

    A net's basis is three vectors (k0, k1, k2), and each later row t is
    dotted with them once, D_t = (k0.row_t, k1.row_t, k2.row_t).  A pair
    r < s of later rows completes the net to a leaf whose kernel vectors are
    the combinations c0 k0 + c1 k1 + c2 k2 with c orthogonal to D_r and D_s,
    so c = D_r x D_s: the leaf is dependent exactly when c = 0, and
    otherwise v = c0 k0 + c1 k1 + c2 k2, not made primitive.  v.row = c.D
    for every row, so a later row t lies on v's hyperplane exactly when
    c.D_t = 0.  No `kernel_step` runs below the nets.  net is (prefix, j,
    basis, dots): the net's row indices, the first later row j, the net's
    basis and the D_t of rows[j:].

    At N = 2 the net is the root, the identity basis with no prefix, and r
    is `first`.  At N = 1 the leaf is the row (a, b) at `first` itself:
    v = (-b, a), read off the basis (e0, e1, 0) with c = (-b, a, 0), and
    j = len(rows).  Leaves come in lexicographic order of their index
    subsets.
    """
    n_rows, n_cols = len(rows), len(rows[0])
    size = n_cols - 1
    if ranks is None:
        ranks = range(n_rows, -1, -1)
    if ranks[first] < size:
        return
    if size == 1:
        a, b = rows[first]
        if a or b:
            yield [-b, a], (-b, a, 0), ((first,), n_rows, ([1, 0], [0, 1], [0, 0]), [])
        return
    # last[k]: the last index whose suffix still has rank k
    last = [max(i for i, r in enumerate(ranks) if r >= k) for k in range(size + 1)]
    for prefix, j, basis in _nets(rows, first, size, last):
        k0, k1, k2 = basis
        dots = [
            (sum(map(mul, k0, row)), sum(map(mul, k1, row)), sum(map(mul, k2, row)))
            for row in rows[j:]
        ]
        net = prefix, j, basis, dots
        for a in range(1 if size == 2 else last[2] - j + 1):
            x0, x1, x2 = dots[a]
            if not (x0 or x1 or x2):
                continue
            for y0, y1, y2 in dots[a + 1:]:
                c0, c1, c2 = x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0
                if c0 or c1 or c2:
                    v = [c0 * p + c1 * q + c2 * w for p, q, w in zip(k0, k1, k2)]
                    yield v, (c0, c1, c2), net


def _nets(rows, first: int, size: int, last):
    """The `hyperplane_leaves` DFS: (prefix, j, basis) for each independent
    prefix of size-2 rows starting at `first`, j its last index plus one;
    the root with no prefix and j = first when size is 2.  A child of a node
    of k rows takes its row from rows[:last[size - k] + 1]."""
    root = kernel_root(len(rows[0]))
    if size == 2:
        yield (), first, root[0]
        return
    node = kernel_step(root, rows[first])
    stack = [(node, first + 1, (first,))] if node else []
    while stack:
        node, start, prefix = stack.pop()
        depth = len(prefix)
        if depth == size - 2:
            yield prefix, start, node[0]
            continue
        for i in range(last[size - depth], start - 1, -1):
            child = kernel_step(node, rows[i])
            if child is not None:
                stack.append((child, i + 1, prefix + (i,)))


def spanned_vectors(rows) -> dict:
    """The distinct primitive kernel vectors of the independent N-subsets of
    the rows, N one less than the row length, each mapped to its incidence:
    the indices of the rows it is orthogonal to.

    rank(rows[i:]) for every i comes from one fold from the end, which
    stops once the basis is empty.  Rows of rank N all lie on one
    hyperplane, which every N-subset would give again: the fold's last
    basis is its one vector, mapped to every index.  Otherwise the leaves
    of `hyperplane_leaves` from each first index whose suffix has rank N,
    with the ranks, are made primitive, and a vector not found before gets
    its incidence from its leaf's net: the net's prefix rows, each later
    row t with c.D_t = 0 (rows in the prefix's span count too) and each
    earlier row outside the prefix whose integer dot product with the
    vector is 0.
    """
    n_rows, n_cols = len(rows), len(rows[0])
    ranks = [n_cols] * n_rows + [0]
    node = kernel_root(n_cols)
    for i in range(n_rows - 1, -1, -1):
        if not node[0]:
            break
        node = kernel_step(node, rows[i]) or node
        ranks[i] = n_cols - len(node[0])
    if ranks[0] == n_cols - 1:
        return {_primitive(node[0][0]): frozenset(range(n_rows))}
    found = {}
    seen = None
    # a first index whose suffix has rank below N yields no leaf
    leaves = chain.from_iterable(hyperplane_leaves(rows, i, ranks) for i in range(n_rows))
    for v, (c0, c1, c2), net in leaves:
        v = _primitive(v)
        if v in found:
            continue
        if net is not seen:
            seen = net
            prefix, j, _, dots = net
            earlier = [r for r in range(j) if r not in prefix]
        found[v] = frozenset(chain(
            prefix,
            [r for r in earlier if not sum(map(mul, v, rows[r]))],
            [j + t for t, (x, y, z) in enumerate(dots) if not c0 * x + c1 * y + c2 * z],
        ))
    return found


def nullspace(rows, n_cols=None) -> list[Vector]:
    """Canonical Fraction basis of the right nullspace.

    The vectors of `kernel`, each `normalized`.  `n_cols` is only needed for
    a matrix with no rows (whose nullspace is all of Q^n_cols).
    """
    rows = list(rows)
    if rows:
        n_cols = len(rows[0])
    elif n_cols is None:
        raise ValueError("column count required for an empty matrix")
    return [normalized(v) for v in kernel(rows, n_cols)]


def normalized(vec) -> Vector:
    """A nonzero rational vector divided by its first nonzero entry."""
    vec = [Fraction(x) for x in vec]
    first = next((x for x in vec if x), None)
    if first is None:
        raise ValueError("the zero vector has no first nonzero entry")
    return tuple(x / first for x in vec)


def _compare_normalized(u, v) -> int:
    """Lexicographic order of `normalized(u)` and `normalized(v)` for
    integer vectors with positive first nonzero entries f and g.

    u_i / f < v_i / g exactly when u_i * g < v_i * f, so integer
    cross-multiplication decides the order and no Fraction is built.
    """
    f = next(filter(None, u))
    g = next(filter(None, v))
    for a, b in zip(u, v):
        a, b = a * g, b * f
        if a != b:
            return -1 if a < b else 1
    return 0


_exact_key = cmp_to_key(_compare_normalized)


def normalized_key(v):
    """Sort key of an integer vector with positive first nonzero entry f, in
    the order of its `normalized` form.

    With f at index i, a vector with more leading zeros comes first; the
    floor of 2^64 * v_(i+1) / f, monotone in v_(i+1) / f, then orders
    almost every other pair by one integer comparison, and
    `_compare_normalized` breaks the remaining ties exactly.
    """
    i, f = next((i, x) for i, x in enumerate(v) if x)
    return -i, (v[i + 1] << 64) // f if i + 1 < len(v) else 0, _exact_key(v)


def vec_dot(a: Vector, b: Vector) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), _ZERO)


@dataclass(frozen=True)
class AffineFlat:
    """Affine subspace of Q^n as integer homogeneous data; empty if no rows.

    Each of `rows` is a positive multiple of (1, z) for a point z of the
    flat, and they span it.  `normals` is a kernel basis of them: z lies in
    the flat exactly when (1, z) is orthogonal to every normal.  `row_span`
    takes the primitive one (`kernel`), which depends on the flat only, so
    flats compare by it.
    """

    ambient_dim: int
    rows: tuple[tuple[int, ...], ...] = field(compare=False)
    normals: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return self.ambient_dim - len(self.normals)

    @property
    def is_empty(self) -> bool:
        return not self.rows

    def contains(self, z) -> bool:
        if len(z) != self.ambient_dim:
            raise ValueError(
                f"ambient dimension mismatch: flat lives in Q^{self.ambient_dim}, point in Q^{len(z)}"
            )
        return self.contains_row(_integer_row((1, *z)))

    def contains_row(self, row) -> bool:
        """Whether the point whose homogeneous row (any positive multiple of
        (1, z), such as an `integer_lift` row) is given lies in the flat."""
        return bool(self.rows) and all(sum(map(mul, normal, row)) == 0 for normal in self.normals)


def row_span(ambient_dim: int, rows) -> AffineFlat:
    """Flat spanned by the points whose integer homogeneous rows are given.

    Each row is a positive multiple of (1, z) for a point z of Q^ambient_dim;
    no rows give the empty flat.
    """
    rows = tuple(tuple(row) for row in rows)
    return AffineFlat(ambient_dim, rows, tuple(kernel(rows, ambient_dim + 1)))


def flat_span(points, ambient_dim=None) -> AffineFlat:
    """Smallest affine flat containing the given points (Fl of the set)."""
    points = list(points)
    if not points:
        if ambient_dim is None:
            raise ValueError("ambient dimension required for the empty flat")
        return row_span(ambient_dim, ())
    n = len(points[0])
    if ambient_dim is not None and ambient_dim != n:
        raise ValueError("ambient dimension mismatch")
    return row_span(n, [_integer_row((1, *p)) for p in points])


def equation_rows(ambient_dim: int, rows) -> tuple:
    """Integer homogeneous rows spanning the flat cut out by affine
    equations, each a row (c0, *c) of the functional c0 + c.z:
    {z : c0 + c.z = 0 for all}; none when the flat is empty.

    The solutions (w0, w) of the homogeneous system are spanned by its
    kernel basis; the flat is empty when every one has w0 = 0.  Otherwise a
    vector u with u0 > 0 turns each w with w0 = 0 into u + w, which keeps
    the span and makes every row a positive multiple of some (1, z).
    """
    basis = kernel(rows, ambient_dim + 1)
    base = next((w for w in basis if w[0]), None)
    if base is None:
        return ()
    return tuple(tuple(w) if w[0] else tuple(a + b for a, b in zip(base, w)) for w in basis)


def affine_rank(points) -> int:
    """Number of affinely independent points = dim Fl(points) + 1."""
    return rank([(1, *p) for p in points])
