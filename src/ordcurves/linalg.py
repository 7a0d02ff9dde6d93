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
cross product c of those dots, with no further elimination.  Each net
carries, as `below`, the earlier rows in the span of its rows.
`spanned_vectors`, the determined-curve scan, maps each curve's primitive
vector to its incidence, in the order of their greedy bases (a vector's
greedy basis is the lexicographically first independent N-subset of the
rows on its hyperplane), along one of two paths.  Rows of full rank n >= 4
with at most s = 2 rows beyond their n columns are read in the coordinates
of one basis (`_coordinate_vectors`).  Neither bound is a tuned value: s
is the size of the cross product below, of at most two coordinate rows,
and at n = 3 (N = 2) the tree's root is its net, so it takes no kernel
step past the rank fold and the coordinates have no steps to save.  Any
other rows take one such walk from every first index whose suffix has
full rank, each vector and its incidence read off the leaf that first
gave the vector, whose rows are its greedy basis: the net's `below`, and
the later rows whose dots have c.D = 0; the one hyperplane of the
suffixes of rank N comes from the rank fold.  The basis verifier reads a
basis's hyperplanes off the same scan.  The samplers' span guard builds
no hyperplane: it reads each candidate in the coordinates of one basis,
whose A_u below come from `dual_basis`, as the near-square scan does.

The coordinates lemma.  Let B be n independent rows and A_u vectors with
B_k.A_u = D_u [k = u], each D_u != 0, and put mu_j[u] = row_j.A_u for
each other row j.  An N-subset (B \\ U) + T, T among the other rows and
|U| = |T| + 1, is independent exactly when y != 0, y the cross product of
its |T| coordinate rows mu_j restricted to U (y = 1 for T empty, (b, -a)
for one row (a, b)); its kernel vector is then the sum of y_u A_u over U,
B_k is on its hyperplane exactly when k is outside U or y_k = 0, and row j
exactly when the sum of mu_j[u] y_u is 0.  Proof: the A_u are a basis, and
B_k.(sum x_u A_u) = D_k x_k, so the vectors orthogonal to B \\ U are those
with x supported on U, and row j has the dot sum mu_j[u] x_u with them.
So the subset's kernel is the kernel of the |T| x |U| matrix of its
coordinate rows, one line exactly when that matrix has rank |T|, that is
when its maximal minors, the entries of y up to sign, are not all 0; then
y spans it, as each coordinate row's dot with y is a determinant with that
row twice.  The incidence is the same dots.  The subset's complement
U + (others \\ T) is any s+1 of the m = n + s rows, so counting by t = |T|
gives sum_t C(s,t) C(n,t+1) = C(m, s+1) = C(m, N)
(Vandermonde), every subset once.  A subset comes before another in
lexicographic order exactly when the least row where they differ is in it,
that is in the other's complement, so the subsets come in lexicographic
order as their complements come in reverse, and the first subset of each
hyperplane is its greedy basis: the scan keeps that order with no sort.

`flats_step` is the package's one walk of all the flats of a row matroid
(Oxley, Matroid Theory, ch. 1): it turns the walk of the rows so far into
a new walk with one more row in one pass over its flats, each flat mapped
to the plain kernel node of its greedy basis.  The grower reads its
forbidden regions off those kernel bases; the verifier walks no flats, as
it reads only a basis's hyperplanes off the span scan.  `prefix_kernels`
gives the kernel node of any index tuple, one step from the memoized node
of its prefix; the verifier's complement spans are built on it.
`nullspace` is the Fraction view of `kernel`, through `normalized`, the
package's one first-nonzero-is-1 scaling; `normalized_key` sorts
primitive vectors in the order of their normalized forms by integer
arithmetic.

An affine flat of Q^n is held as integer homogeneous data: spanning rows,
each a positive multiple of (1, z) for a point z of the flat, and a kernel
basis of them, which are the flat's equations (c0, *c) of c0 + c.z = 0, the
row layout `equation_rows` takes.  Membership is integer dot products
with those equations.  Flats follow the convention dim(empty) = -1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from itertools import chain, combinations
from math import gcd, lcm
from operator import mul

Vector = tuple[Fraction, ...]


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


def flats_step(walk: dict, rows, m: int) -> dict:
    """The flats walk of rows[:m] extended by rows[m], as a new walk; the
    given walk is left as it is.

    A walk maps each flat, an ascending index tuple, to its kernel node
    (basis, pivot): that of the flat's greedy basis, its lexicographically
    first independent subset, stepped in index order (`kernel_step`).  The
    step eliminates the first free column with a nonzero dot, so the basis
    keeps the echelon form's free columns: made primitive, it is `kernel`
    of the flat's rows.  The walk of no rows is {(): kernel_root(n_cols)}.

    A flat whose basis is orthogonal to rows[m] gains m with its node.  Any
    other flat stays, and its `kernel_step` child by the row is a new flat
    exactly when it spans no other earlier row: each row before m outside
    the flat has a nonzero dot with some child vector.  A prefix of a
    greedy basis is a greedy basis of its own closure, and m comes last,
    so that flat is the closure of the new flat's greedy basis less m:
    every flat of rows[:m+1] arises once.
    """
    row = rows[m]
    out = {}
    for closure, (basis, pivot) in walk.items():
        dots = [sum(map(mul, k, row)) for k in basis]
        if not any(dots):
            out[closure + (m,)] = basis, pivot
            continue
        out[closure] = basis, pivot
        child = _eliminate(basis, pivot, dots)
        inside = set(closure)
        if all(any(sum(map(mul, k, rows[j])) for k in child[0])
               for j in range(m) if j not in inside):
            out[closure + (m,)] = child
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
    least index is `first`, N one less than the row length, as (v, c, net)
    with net = (j, dots, below).

    A lexicographic prefix-tree DFS on `kernel_step` (Knuth, TAOCP 4A
    7.2.1.3) from the node of rows[first] down to the nets, the nodes of N-2
    rows, two levels above the leaves.  A child whose row reduces its
    parent's basis to zero has a dependent prefix, and a child on row i at
    depth k cannot be completed from the rows left when rank(rows[i:]) =
    ranks[i] is below N - k; either subtree is skipped.  `ranks` holds
    rank(rows[i:]) for every i up to len(rows), where it is 0; without it
    only the count of rows left bounds the walk.  Each path carries one
    tuple, `below`: the zero rows before `first`, the path's rows, and the
    rows each node on it tried and found in its span, all in the span of
    the net's rows.

    A net's basis is three vectors (k0, k1, k2), and each later row, from j
    one past the net's last row, is dotted with them once: `dots` holds
    D_t = (k0.r, k1.r, k2.r) for r = rows[j + t].  A pair a < b of later
    rows completes the net to a leaf whose kernel vectors are the
    combinations c0 k0 + c1 k1 + c2 k2 with c orthogonal to D_a and D_b, so
    c = D_a x D_b: the leaf is dependent exactly when c = 0, and otherwise
    v = c0 k0 + c1 k1 + c2 k2, not made primitive.  v.rows[j + t] = c.D_t,
    so that row lies on v's hyperplane exactly when c.D_t = 0.  No
    `kernel_step` runs below the nets.

    At N = 2 the net is the root, the identity basis, with j = `first`.  At
    N = 1 the leaf is the row (x, y) at `first` itself: v = (-y, x), read
    off the basis (e0, e1, 0) with c = (-y, x, 0) and j = first + 1.  Leaves
    come in lexicographic order of their index subsets.
    """
    n_rows, n_cols = len(rows), len(rows[0])
    size = n_cols - 1
    if ranks is None:
        ranks = range(n_rows, -1, -1)
    if ranks[first] < size:
        return
    zeros = tuple(r for r in range(first) if not any(rows[r]))
    if size == 1:
        x, y = rows[first]
        if x or y:
            dots = [(*row, 0) for row in rows[first + 1:]]
            yield [-y, x], (-y, x, 0), (first + 1, dots, (*zeros, first))
        return
    # last[k]: the last index whose suffix still has rank k
    last = [max(i for i, r in enumerate(ranks) if r >= k) for k in range(size + 1)]
    root = kernel_root(n_cols)
    if size == 2:
        stack = [(root, first, 0, zeros)]
    else:
        node = kernel_step(root, rows[first])
        stack = [(node, first + 1, 1, (*zeros, first))] if node else []
    while stack:
        node, j, depth, below = stack.pop()
        if depth < size - 2:
            children = []
            for i in range(last[size - depth], j - 1, -1):
                child = kernel_step(node, rows[i])
                if child is None:
                    below += (i,)
                else:
                    children.append((child, i))
            stack += [(child, i + 1, depth + 1, below + (i,)) for child, i in children]
            continue
        k0, k1, k2 = node[0]
        dots = [
            (sum(map(mul, k0, row)), sum(map(mul, k1, row)), sum(map(mul, k2, row)))
            for row in rows[j:]
        ]
        net = j, dots, below
        for a in range(1 if size == 2 else last[2] - j + 1):
            x0, x1, x2 = dots[a]
            if not (x0 or x1 or x2):
                continue
            for y0, y1, y2 in dots[a + 1:]:
                c0, c1, c2 = x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0
                if c0 or c1 or c2:
                    v = [c0 * p + c1 * q + c2 * w for p, q, w in zip(k0, k1, k2)]
                    yield v, (c0, c1, c2), net


def spanned_vectors(rows) -> dict:
    """The distinct primitive kernel vectors of the independent N-subsets of
    the rows, N one less than the row length n, each mapped to its
    incidence, the indices of the rows it is orthogonal to, in the order of
    their greedy bases, the first subset that gives each.

    rank(rows[i:]) for every i comes from one fold from the end
    (`_suffix_ranks`).  Rows of rank n >= 4 with s = m - n <= 2 for m rows
    are scanned in the coordinates of the basis B where the fold's rank
    rises (`_coordinate_vectors`, the coordinates lemma in the module
    docstring): one elimination over n rows, then the C(m, N) = C(m, s+1)
    subsets with a cross product of at most two coordinate rows each, where
    the prefix tree steps N-2 levels for every few leaves.  Any other rows
    walk the prefix tree (`_leaf_vectors`): with more rows beyond the
    basis, y would be the maximal minors of a larger coordinate matrix
    while the tree skips every dependent prefix; at n = 3 the tree steps no
    level at all; and rows that do not span have no basis.  Both paths give
    the same map in the same order.
    """
    ranks, plane = _suffix_ranks(rows)
    n_cols = len(rows[0])
    if ranks[0] == n_cols > 3 and len(rows) - n_cols <= 2:
        return _coordinate_vectors(rows, [i for i in range(len(rows)) if ranks[i] > ranks[i + 1]])
    return _leaf_vectors(rows, ranks, plane)


def _suffix_ranks(rows):
    """rank(rows[i:]) for every i up to len(rows), where it is 0, from one
    fold from the end that stops once the basis is empty, with the fold's
    one kernel vector where the rank first reached N (None if it did not);
    the ranks before the index where it stopped are n, the row length."""
    n_rows, n_cols = len(rows), len(rows[0])
    ranks = [n_cols] * n_rows + [0]
    node = kernel_root(n_cols)
    plane = None
    for i in range(n_rows - 1, -1, -1):
        if not node[0]:
            break
        node = kernel_step(node, rows[i]) or node
        ranks[i] = n_cols - len(node[0])
        if ranks[i] == n_cols - 1:
            plane = node[0][0]
    return ranks, plane


def _leaf_vectors(rows, ranks, plane) -> dict:
    """`spanned_vectors` by the prefix tree, given `_suffix_ranks`, for
    rows of any shape.

    Every N-subset with a least index whose suffix has rank exactly N lies
    in that suffix, so it spans the one hyperplane of the fold node where
    the rank first reached N.  So the leaves of `hyperplane_leaves`, with
    the ranks, are walked only from the first indices whose suffix has full
    rank, and that one vector is added after them when they did not find
    it: on it lie every row from the first rank-N index on and each earlier
    row whose dot product with it is 0.  Rows of rank N walk nothing and
    give it with every index.

    Each leaf's vector is made primitive, and a vector not found before
    gets its incidence from its leaf (v, c, (j, dots, below)): `below` and
    the later rows j + t with c.D_t = 0.  Leaves come in lexicographic
    order, the walk cuts no prefix that can be completed, and a skipped
    first index gives only the fold's vector, so the first leaf of a vector
    is its greedy basis.  A row before j is then on the hyperplane exactly
    when it lies in the span of the leaf rows below it, and `below` holds
    each such row and no row off the hyperplane; a row j + t exactly when
    c.D_t, its dot with v, is 0.
    """
    n_rows, n_cols = len(rows), len(rows[0])
    full = ranks.count(n_cols)
    found = {}
    leaves = chain.from_iterable(hyperplane_leaves(rows, i, ranks) for i in range(full))
    for v, c, net in leaves:
        v = _primitive(v)
        if v not in found:
            (c0, c1, c2), (j, dots, below) = c, net
            found[v] = frozenset(below).union([
                t for t, (x, y, z) in enumerate(dots, j) if not c0 * x + c1 * y + c2 * z
            ])
    if ranks[full] == n_cols - 1 and (v := _primitive(plane)) not in found:
        earlier = [r for r in range(full) if not sum(map(mul, v, rows[r]))]
        found[v] = frozenset(chain(earlier, range(full, n_rows)))
    return found


def _coordinate_vectors(rows, basis) -> dict:
    """`spanned_vectors` of rows of rank n with at most two rows besides
    the basis B = rows[basis], an ascending index list of n rows, by the
    coordinates lemma, with the A_u of `dual_basis`.

    The subsets come with their complements in reverse lexicographic order.
    A hyperplane with more than N rows on it is the hyperplane of each
    independent N-subset of those rows, so once found it marks their
    complements, and those subsets are skipped.
    """
    n_rows, n = len(rows), len(basis)
    dual = dual_basis([rows[b] for b in basis])
    where = {b: k for k, b in enumerate(basis)}
    others = [j for j in range(n_rows) if j not in where]
    mu = {j: [sum(map(mul, rows[j], a)) for a in dual] for j in others}
    basis_set = frozenset(basis)
    skip = set()
    found = {}
    for out in sorted(combinations(range(n_rows), n_rows - n + 1), reverse=True):
        if out in skip:
            continue
        U = [where[r] for r in out if r in where]
        T = [mu[j] for j in others if j not in out]
        if not T:
            y, v = [1], dual[U[0]]
        elif len(T) == 1:
            (u0, u1), (t,) = U, T
            c0, c1 = y = [t[u1], -t[u0]]
            v = [c0 * p + c1 * q for p, q in zip(dual[u0], dual[u1])]
        else:
            u0, u1, u2 = U
            (x0, x1, x2), (z0, z1, z2) = ([t[u] for u in U] for t in T)
            c0, c1, c2 = y = [x1 * z2 - x2 * z1, x2 * z0 - x0 * z2, x0 * z1 - x1 * z0]
            v = [c0 * p + c1 * q + c2 * r for p, q, r in zip(dual[u0], dual[u1], dual[u2])]
        if not any(y):
            continue
        incidence = basis_set.difference(basis[u] for u, c in zip(U, y) if c).union(
            j for j in others if not sum(map(mul, y, [mu[j][u] for u in U])))
        found[_primitive(v)] = incidence
        if len(incidence) >= n:
            off = tuple(r for r in range(n_rows) if r not in incidence)
            skip.update(tuple(sorted(off + extra))
                        for extra in combinations(sorted(incidence), len(incidence) - n + 1))
    return found


def dual_basis(basis, nodes=None) -> list:
    """Vectors A_u with B_k.A_u = D_u [k = u], each D_u != 0, for n
    independent integer rows B of length n: the A_u of the coordinates
    lemma.  `nodes`, when given, are the kernel nodes of the prefixes
    B_1..B_k for k < n, as `kernel_step` folds them from `kernel_root(n)`;
    otherwise they are folded here.

    Row k has a nonzero dot with some vector of its prefix's node, as it
    lies outside the prefix's span; the first such, kp, is the vector the
    step on row k pivots on.  A_k starts as kp, orthogonal to the rows
    before k, and each later row steps the A_j as if they followed the
    kernel vectors of its node (`_eliminate`), kp first: a multiple of kp
    is added to make each orthogonal to the row, and B_j.A_j only scales,
    since kp is orthogonal to B_j.  The divisions are exact: this is the
    elimination of the rows (B_k, -e_k) of length 2n, one `kernel_step`
    each, on its first n columns.  Its free columns end as the last n, and
    the unit vector of column n + k, a pivot times e_(n+k) before row k,
    leaves row k's step as (kp, s_p), after the prefix's kernel vectors and
    the A_j before it.  Each A_u is then made primitive, which keeps the
    lemma and shrinks every later product: A_u is D, det B up to sign,
    times column u of B^-1, and most of D is common to its entries.
    """
    if nodes is None:
        nodes = [kernel_root(len(basis))]
        for row in basis[:-1]:
            nodes.append(kernel_step(nodes[-1], row))
    dual = []
    for (vectors, pivot), row in zip(nodes, basis):
        kp = next(v for v in vectors if sum(map(mul, v, row)))
        if dual:
            dual, _ = _eliminate([kp, *dual], pivot, [sum(map(mul, a, row)) for a in [kp, *dual]])
        dual.append(kp)
    return [_primitive(a) for a in dual]


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


class AffineFlat:
    """Affine subspace of Q^n as integer homogeneous data; empty if no rows.

    Each of `rows` is a positive multiple of (1, z) for a point z of the
    flat, and they span it.  `normals` is a kernel basis of them: z lies in
    the flat exactly when (1, z) is orthogonal to every normal.  `row_span`
    takes the primitive one (`kernel`), which depends on the flat only, so
    flats compare and hash by (ambient_dim, normals), whatever their rows.
    """

    __slots__ = ("ambient_dim", "rows", "normals")

    def __init__(self, ambient_dim: int, rows: tuple[tuple[int, ...], ...],
                 normals: tuple[tuple[int, ...], ...]):
        self.ambient_dim = ambient_dim
        self.rows = rows
        self.normals = normals

    def __eq__(self, other):
        if type(other) is not AffineFlat:
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.normals == other.normals

    def __hash__(self):
        return hash((self.ambient_dim, self.normals))

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
